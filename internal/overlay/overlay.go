// Package overlay defines the protocol-agnostic surface the comparative
// evaluation harness drives: an Overlay is any routed peer-to-peer network
// (TreeP, the Chord baseline, the flooding baseline) that can join and
// lose members, resolve lookups for node IDs, and run its own maintenance
// on the shared event kernel.
//
// Key types:
//
//   - Overlay — the interface every backend implements (join / leave /
//     lookup / maintenance-tick, plus partition injection and state
//     accounting). Adapters: TreeP, Chord, Flood.
//   - Outcome — one lookup's origin-observed result, normalised across
//     protocols (found / hops / latency).
//   - PlayResult — the event accounting of a scenario script interpreted
//     against a backend by Play.
//
// Play runs the Portable phases of internal/scenario (Settle, Churn,
// FlashCrowd, ZoneFailure, PartitionHeal) against the backend — an Overlay
// is a scenario.World — so all backends absorb the *same* workload timeline:
// event times and intensities come from a caller-owned RNG, which the
// comparative runner re-seeds identically per backend.
package overlay

import (
	"math/rand"
	"time"

	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/scenario"
)

// Outcome is one lookup's origin-observed result, normalised across
// protocols so backends can be compared row for row.
type Outcome struct {
	// Found reports whether the lookup resolved to the exact target node.
	Found bool
	// Hops is the overlay forward count of a successful lookup.
	Hops int
	// Latency is the origin-observed virtual time to resolution.
	Latency time.Duration
}

// Overlay is a routed peer-to-peer network under test. One Overlay owns
// one event loop (a sim.Kernel, or a one-shard sim.Sharded) and one
// netsim.Network; all state mutation happens on that loop, so an Overlay
// is not safe for concurrent use.
type Overlay interface {
	// Name identifies the backend in records ("treep", "chord", "flood").
	Name() string
	// World is the clock plus the membership and connectivity faults the
	// scenario phases inject (Now, Run, Join, Leave, KillZone, Partition,
	// Heal). Leave's victim comes from the overlay's own deterministic
	// stream; a joiner integrates asynchronously as virtual time advances.
	scenario.World
	// NetStats returns the network's cumulative message accounting;
	// callers diff snapshots to charge traffic to phases.
	NetStats() netsim.Stats
	// AliveCount returns the live population.
	AliveCount() int
	// AliveIDs returns the live nodes' IDs in a stable order. The slice is
	// a snapshot owned by the caller; index i corresponds to origin i of
	// Lookup until the next membership change.
	AliveIDs() []idspace.ID
	// MaintenanceTick runs the protocol-specific failure handling that the
	// simulation models out-of-band (Chord's timeout-based eviction, the
	// flooding graph's neighbour re-wiring). TreeP detects failures in
	// protocol, so its tick is a no-op. The harness calls it once per
	// phase boundary, before measuring.
	MaintenanceTick()
	// Lookup resolves target from the origin-th live node (an index into
	// the current AliveIDs snapshot) and calls cb exactly once after the
	// caller advances virtual time by at least LookupWindow.
	Lookup(origin int, target idspace.ID, cb func(Outcome))
	// LookupWindow is how much virtual time guarantees every issued lookup
	// has resolved or timed out.
	LookupWindow() time.Duration
	// StateSize returns the total routing-state entry count across live
	// nodes (the per-protocol "memory cost" metric).
	StateSize() int
}

// members implements the membership and connectivity side of Overlay over
// any simulated cluster that can run its clock, list and fail-stop its
// live nodes of type N, and split and heal its network.
type members[N interface{ ID() idspace.ID }] struct {
	c interface {
		Run(time.Duration)
		AliveNodes() []N
		Kill(N)
		Partition(idspace.ID)
		Heal()
	}
	rng *rand.Rand // picks Leave's victim
}

// Run implements Overlay.
func (m members[N]) Run(d time.Duration) { m.c.Run(d) }

// Partition implements Overlay.
func (m members[N]) Partition(split idspace.ID) { m.c.Partition(split) }

// Heal implements Overlay.
func (m members[N]) Heal() { m.c.Heal() }

// AliveCount implements Overlay.
func (m members[N]) AliveCount() int { return len(m.c.AliveNodes()) }

// AliveIDs implements Overlay.
func (m members[N]) AliveIDs() []idspace.ID {
	alive := m.c.AliveNodes()
	out := make([]idspace.ID, len(alive))
	for i, n := range alive {
		out[i] = n.ID()
	}
	return out
}

// Leave implements Overlay.
func (m members[N]) Leave() bool {
	alive := m.c.AliveNodes()
	if len(alive) <= 2 {
		return false
	}
	m.c.Kill(alive[m.rng.Intn(len(alive))])
	return true
}

// KillZone implements Overlay.
func (m members[N]) KillZone(zone idspace.Region) int {
	killed := 0
	for _, n := range m.c.AliveNodes() {
		if zone.Contains(n.ID()) {
			m.c.Kill(n)
			killed++
		}
	}
	return killed
}
