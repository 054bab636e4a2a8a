package overlay

import (
	"fmt"
	"math/rand"

	"treep/internal/idspace"
	"treep/internal/scenario"
)

// PlayResult counts the events a scenario script injected into a backend.
type PlayResult struct {
	// Joins counts nodes spawned and bootstrapped into the overlay.
	Joins int
	// Leaves counts nodes fail-stopped by churn.
	Leaves int
	// ZoneKilled counts nodes fail-stopped by zone failures.
	ZoneKilled int
}

// Supported reports whether the comparative interpreter can play the
// phase (callers validate scripts before fanning out trials).
func Supported(ph scenario.Phase) bool {
	_, ok := ph.(scenario.Portable)
	return ok
}

// counted is the backend as the phases see it, tallying what they inject.
type counted struct {
	Overlay
	res PlayResult
}

func (c *counted) Join() bool {
	ok := c.Overlay.Join()
	if ok {
		c.res.Joins++
	}
	return ok
}

func (c *counted) Leave() bool {
	ok := c.Overlay.Leave()
	if ok {
		c.res.Leaves++
	}
	return ok
}

func (c *counted) KillZone(zone idspace.Region) int {
	n := c.Overlay.KillZone(zone)
	c.res.ZoneKilled += n
	return n
}

// Play interprets scenario phase scripts against any backend. It supports
// the protocol-agnostic phases — Settle, Churn, FlashCrowd, ZoneFailure,
// PartitionHeal — and returns an error for TreeP-specific ones
// (RevivalWave needs per-node stale-state revival that the baselines do
// not model). Event times and intensities are drawn from rng, so two
// backends played with identically seeded RNGs absorb the same timeline.
func Play(ov Overlay, rng *rand.Rand, phases ...scenario.Phase) (PlayResult, error) {
	c := counted{Overlay: ov}
	for _, ph := range phases {
		p, ok := ph.(scenario.Portable)
		if !ok {
			return c.res, fmt.Errorf("overlay: phase %q is not supported by the comparative interpreter", ph.Name())
		}
		p.Drive(&c, rng)
	}
	return c.res, nil
}
