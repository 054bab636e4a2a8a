package overlay

import (
	"time"

	"treep/internal/chord"
	"treep/internal/idspace"
	"treep/internal/netsim"
)

// Chord adapts the chord.Cluster baseline to the Overlay interface. A
// lookup succeeds when successor(target) resolves to the exact live
// target node — the same "find this node" workload the other backends
// run.
type Chord struct {
	C *chord.Cluster
	members[*chord.Node]
}

// NewChord builds a steady-state Chord ring of n nodes with periodic
// stabilisation running.
func NewChord(n int, seed int64) *Chord {
	c := chord.New(n, seed)
	return &Chord{C: c, members: members[*chord.Node]{c, c.Kernel.Stream(0x6f766c79)}} // "ovly"
}

// Name implements Overlay.
func (a *Chord) Name() string { return "chord" }

// Now implements Overlay.
func (a *Chord) Now() time.Duration { return a.C.Kernel.Now() }

// NetStats implements Overlay.
func (a *Chord) NetStats() netsim.Stats { return a.C.Net.Stats() }

// Join implements Overlay.
func (a *Chord) Join() bool { return a.C.Join() != nil }

// MaintenanceTick implements Overlay: run Chord's timeout-based failure
// eviction (modelled out-of-band, see chord.DropDead).
func (a *Chord) MaintenanceTick() { a.C.DropDead() }

// Lookup implements Overlay.
func (a *Chord) Lookup(origin int, target idspace.ID, cb func(Outcome)) {
	alive := a.C.AliveNodes()
	if len(alive) == 0 {
		cb(Outcome{})
		return
	}
	n := alive[origin%len(alive)]
	start := a.C.Kernel.Now()
	n.Lookup(a.C, target, func(r chord.LookupResult) {
		cb(Outcome{
			Found:   r.Found && r.Succ == target,
			Hops:    r.Hops,
			Latency: a.C.Kernel.Now() - start,
		})
	})
}

// LookupWindow implements Overlay.
func (a *Chord) LookupWindow() time.Duration { return a.C.LookupTimeout() + time.Second }

// StateSize implements Overlay.
func (a *Chord) StateSize() int {
	total := 0
	for _, n := range a.C.AliveNodes() {
		total += n.StateSize()
	}
	return total
}
