package core

import (
	"time"

	"treep/internal/idspace"
	"treep/internal/nodeprof"
	"treep/internal/routing"
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
	// Routing selects the distance model and lookup parameters.
	Routing routing.Params

	// KeepAlive is the interval between Pings on active connections.
	KeepAlive time.Duration
	// EntryTTL expires routing entries that have seen no active
	// communication (§III.c); it should cover a few missed keep-alives.
	EntryTTL time.Duration
	// SweepInterval is how often the expiry sweep runs.
	SweepInterval time.Duration
	// ProbeInterval paces the ring self-healing probes (repair.go): each
	// occupied side verifies its nearest neighbour's adjacency this often,
	// and a side that stays empty past EntryTTL retries its void probe at
	// the same cadence.
	ProbeInterval time.Duration
	// ChildReport is the child→parent heartbeat interval.
	ChildReport time.Duration
	// ElectionMin/Max bound the capability countdown of §III.b.
	ElectionMin, ElectionMax time.Duration
	// DemotionMin/Max bound the reverse countdown for under-filled parents.
	DemotionMin, DemotionMax time.Duration
	// LookupTimeout bounds how long an origin waits for a reply.
	LookupTimeout time.Duration
	// MaxHeight caps the hierarchy height h (6 in the paper's evaluation);
	// elections stop promoting at this level.
	MaxHeight uint8
	// MaxTTL is the lookup hop budget ("IF TTL > 255 THEN discard").
	MaxTTL uint8

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
// Times are virtual-time friendly: keep-alive 2 s, entries live for three
// missed keep-alives.
func Defaults() Config {
	return Config{
		ChildPolicy:      nodeprof.FixedPolicy{NC: 4},
		MaxHeight:        6,
		KeepAlive:        2 * time.Second,
		EntryTTL:         6 * time.Second,
		SweepInterval:    time.Second,
		ProbeInterval:    5 * time.Second,
		ChildReport:      2 * time.Second,
		ElectionMin:      200 * time.Millisecond,
		ElectionMax:      2 * time.Second,
		DemotionMin:      5 * time.Second,
		DemotionMax:      30 * time.Second,
		LookupTimeout:    10 * time.Second,
		MaxTTL:           255,
		ImmediateUpdates: true,
	}
}

// withDefaults fills zero fields from Defaults.
func (c Config) withDefaults() Config {
	d := Defaults()
	if c.ChildPolicy == nil {
		c.ChildPolicy = d.ChildPolicy
	}
	if c.MaxHeight == 0 {
		c.MaxHeight = d.MaxHeight
	}
	if c.KeepAlive == 0 {
		c.KeepAlive = d.KeepAlive
	}
	if c.EntryTTL == 0 {
		c.EntryTTL = d.EntryTTL
	}
	if c.SweepInterval == 0 {
		c.SweepInterval = d.SweepInterval
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = d.ProbeInterval
	}
	if c.ChildReport == 0 {
		c.ChildReport = d.ChildReport
	}
	if c.ElectionMin == 0 {
		c.ElectionMin = d.ElectionMin
	}
	if c.ElectionMax == 0 {
		c.ElectionMax = d.ElectionMax
	}
	if c.DemotionMin == 0 {
		c.DemotionMin = d.DemotionMin
	}
	if c.DemotionMax == 0 {
		c.DemotionMax = d.DemotionMax
	}
	if c.LookupTimeout == 0 {
		c.LookupTimeout = d.LookupTimeout
	}
	if c.MaxTTL == 0 {
		c.MaxTTL = d.MaxTTL
	}
	if c.Routing.Height == 0 {
		c.Routing.Height = c.MaxHeight
	}
	if c.Routing.Model == nil {
		c.Routing.Model = routing.PaperModel{Height: c.MaxHeight}
	}
	return c
}
