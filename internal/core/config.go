package core

import (
	"time"

	"treep/internal/idspace"
	"treep/internal/nodeprof"
	"treep/internal/routing"
)

// The protocol's timers and hop budget. The paper fixes the maintenance
// cadence (keep-alive, expiry after missed keep-alives, §III.c) as part of
// the protocol; every node runs it at these values.
const (
	// keepAlive is the interval between Pings on active connections.
	keepAlive = 2 * time.Second
	// EntryTTL expires routing entries that have seen no active
	// communication (§III.c): three missed keep-alives.
	EntryTTL = 3 * keepAlive
	// sweepInterval is how often the expiry sweep runs.
	sweepInterval = time.Second
	// probeInterval paces the ring self-healing probes (repair.go): each
	// occupied side verifies its nearest neighbour's adjacency this often,
	// and a side that stays empty past EntryTTL retries its void probe at
	// the same cadence.
	probeInterval = 5 * time.Second
	// childReport is the child→parent heartbeat interval.
	childReport = 2 * time.Second
	// electionMin/Max bound the capability countdown of §III.b.
	electionMin, electionMax = 200 * time.Millisecond, 2 * time.Second
	// demotionMin/Max bound the reverse countdown for under-filled parents.
	demotionMin, demotionMax = 5 * time.Second, 30 * time.Second
	// LookupDeadline bounds how long an origin waits for a reply.
	LookupDeadline = 10 * time.Second
	// MaxTTL is the lookup hop budget ("IF TTL > 255 THEN discard").
	MaxTTL = 255
)

// Config parameterises one TreeP node. Zero-valued fields are filled from
// Defaults by NewNode, except ImmediateUpdates: a bool has no unset value,
// so a Config not built from Defaults runs piggyback-only.
type Config struct {
	// ID is the node's coordinate in the 1-D space (§III: "the ID provides
	// a spatial coordinates in the system").
	ID idspace.ID
	// Profile describes the node's hardware and load; it drives election
	// and demotion countdowns and the capacity-based child policy.
	Profile nodeprof.Profile
	// ChildPolicy computes the maximum number of children nc (fixed 4 or
	// capacity-driven in the paper's two evaluation cases).
	ChildPolicy nodeprof.ChildPolicy
	// Routing is derived, not set: NewNode fills it from MaxHeight, over
	// whatever the caller put here, and Node.Config reports it.
	Routing routing.Params

	// MaxHeight caps the hierarchy height h (6 in the paper's evaluation);
	// elections stop promoting at this level.
	MaxHeight uint8

	// ImmediateUpdates pushes routing deltas to active peers as soon as
	// they happen, the paper's current implementation ("the update is
	// exchanged immediately"); false delays them to the next keep-alive
	// piggyback (ABL-2 compares the two). Defaults sets it; the zero Config
	// the benchmark and most simulated clusters pass does not (DESIGN.md §17).
	ImmediateUpdates bool

	// Anchors are well-known rendezvous addresses (the paper's §III
	// "anchor system"): contacted only when the node is isolated or cannot
	// find a parent through the overlay, never used for routing. In a real
	// deployment these are bootstrap hosts.
	Anchors []uint64
}

// Defaults returns the baseline configuration used by the experiments.
func Defaults() Config {
	return Config{
		ChildPolicy:      nodeprof.FixedPolicy{NC: 4},
		MaxHeight:        6,
		ImmediateUpdates: true,
	}
}

// withDefaults fills zero fields from Defaults and derives Routing.
func (c Config) withDefaults() Config {
	d := Defaults()
	if c.ChildPolicy == nil {
		c.ChildPolicy = d.ChildPolicy
	}
	if c.MaxHeight == 0 {
		c.MaxHeight = d.MaxHeight
	}
	c.Routing = routing.Params{Height: c.MaxHeight}
	return c
}
