package overlay

import (
	"time"

	"treep/internal/flood"
	"treep/internal/idspace"
	"treep/internal/netsim"
)

// floodDegree is the random-graph degree of the flooding baseline (a
// typical Gnutella client keeps 4–8 neighbours).
const floodDegree = 6

// floodTTL is the flood hop budget (Gnutella shipped with TTL 7; one extra
// hop covers the sparser corners of a churned graph).
const floodTTL = 8

// Flood adapts the flood.Cluster baseline to the Overlay interface.
// Lookups flood for the exact target ID with a fixed TTL.
type Flood struct {
	C *flood.Cluster
	members[*flood.Node]
}

// NewFlood builds a flooding network of n nodes wired at degree 6.
func NewFlood(n int, seed int64) *Flood {
	c := flood.New(n, floodDegree, seed)
	return &Flood{C: c, members: members[*flood.Node]{c, c.Kernel.Stream(0x6f766c79)}} // "ovly"
}

// Name implements Overlay.
func (a *Flood) Name() string { return "flood" }

// Now implements Overlay.
func (a *Flood) Now() time.Duration { return a.C.Kernel.Now() }

// NetStats implements Overlay.
func (a *Flood) NetStats() netsim.Stats { return a.C.Net.Stats() }

// Join implements Overlay.
func (a *Flood) Join() bool { return a.C.Join() != nil }

// MaintenanceTick implements Overlay: evict dead neighbours and re-dial
// under-connected nodes (modelled out-of-band, see flood.PruneDead).
func (a *Flood) MaintenanceTick() { a.C.PruneDead() }

// Lookup implements Overlay.
func (a *Flood) Lookup(origin int, target idspace.ID, cb func(Outcome)) {
	alive := a.C.AliveNodes()
	if len(alive) == 0 {
		cb(Outcome{})
		return
	}
	n := alive[origin%len(alive)]
	start := a.C.Kernel.Now()
	n.Lookup(a.C, target, floodTTL, func(r flood.Result) {
		cb(Outcome{
			Found:   r.Found,
			Hops:    r.Hops,
			Latency: a.C.Kernel.Now() - start,
		})
	})
}

// LookupWindow implements Overlay.
func (a *Flood) LookupWindow() time.Duration { return a.C.LookupTimeout() + time.Second }

// StateSize implements Overlay.
func (a *Flood) StateSize() int {
	total := 0
	for _, n := range a.C.AliveNodes() {
		total += n.StateSize()
	}
	return total
}
