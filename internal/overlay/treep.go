package overlay

import (
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/simrt"
)

// TreeP adapts a simrt.Cluster (the paper's overlay) to the Overlay
// interface. Lookups use algorithm G — the paper's baseline greedy
// algorithm — so the cross-protocol comparison measures the architecture,
// not the smartest retry strategy.
type TreeP struct {
	C *simrt.Cluster
	members[*core.Node]

	algo proto.Algo
}

// NewTreeP builds a bulk-initialised, started TreeP cluster of n nodes.
func NewTreeP(n int, seed int64) *TreeP {
	c := simrt.New(simrt.Options{
		N:      n,
		Seed:   seed,
		Config: core.Defaults(),
		Bulk:   true,
	})
	c.StartAll()
	return &TreeP{C: c, members: members[*core.Node]{c, c.Kernel.Stream(0x6f766c79)}, algo: proto.AlgoG} // "ovly"
}

// Name implements Overlay.
func (t *TreeP) Name() string { return "treep" }

// Now implements Overlay.
func (t *TreeP) Now() time.Duration { return t.C.Kernel.Now() }

// NetStats implements Overlay.
func (t *TreeP) NetStats() netsim.Stats { return t.C.Net.Stats() }

// Join implements Overlay: spawn a fresh node and bootstrap it through a
// live peer (the protocol's dynamic join).
func (t *TreeP) Join() bool { return t.C.SpawnJoin() != nil }

// MaintenanceTick implements Overlay. TreeP's failure detection is fully
// in-protocol (parent keepalives, table sweeps), so there is nothing to
// model out-of-band.
func (t *TreeP) MaintenanceTick() {}

// Lookup implements Overlay.
func (t *TreeP) Lookup(origin int, target idspace.ID, cb func(Outcome)) {
	alive := t.C.AliveNodes()
	if len(alive) == 0 {
		cb(Outcome{})
		return
	}
	n := alive[origin%len(alive)]
	n.Lookup(target, t.algo, func(r core.LookupResult) {
		cb(Outcome{
			Found:   r.Status == core.LookupFound && r.Best.ID == target,
			Hops:    r.Hops,
			Latency: r.Latency,
		})
	})
}

// LookupWindow implements Overlay.
func (t *TreeP) LookupWindow() time.Duration {
	return core.LookupDeadline + time.Second
}

// StateSize implements Overlay: total routing-table entries across live
// nodes (parents, buses, rings — everything the table holds).
func (t *TreeP) StateSize() int {
	total := 0
	for _, n := range t.C.AliveNodes() {
		total += n.Table().Size()
	}
	return total
}
