package routing

import (
	"math/rand"
	"testing"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// buildTable constructs a routing table holding the given refs in level 0
// (good enough for decision-logic tests; set-specific cases build their
// own).
func buildTable(refs ...proto.NodeRef) *rtable.Table {
	tb := rtable.New()
	for _, r := range refs {
		tb.Level0.Upsert(r, proto.FNeighbor, 0, tb.NextVersion(), rtable.Direct)
	}
	return tb
}

func lookupReq(target idspace.ID, algo proto.Algo) *proto.LookupRequest {
	return &proto.LookupRequest{Target: target, TTL: 255, Algo: algo}
}

func params() Params { return Params{Height: 6} }

// Route is RouteWith over a scratch of its own, for one-off decisions.
func Route(self proto.NodeRef, tbl *rtable.Table, req *proto.LookupRequest, fromParent bool, sender uint64, p Params) Step {
	var sc Scratch
	return RouteWith(&sc, self, tbl, req, fromParent, sender, p)
}

func TestRouteTTLDrop(t *testing.T) {
	self := refAt(100, 0)
	req := lookupReq(500, proto.AlgoG)
	req.TTL = 0
	step := Route(self, buildTable(), req, false, 0, params())
	if step.Action != Drop {
		t.Fatalf("action %v, want drop", step.Action)
	}
}

func TestRouteDeliverSelf(t *testing.T) {
	self := refAt(100, 0)
	step := Route(self, buildTable(), lookupReq(100, proto.AlgoG), false, 0, params())
	if step.Action != Deliver || step.Found.ID != 100 {
		t.Fatalf("step %+v", step)
	}
}

func TestRouteDeliverFromTable(t *testing.T) {
	self := refAt(100, 0)
	target := refAt(500, 0)
	step := Route(self, buildTable(target), lookupReq(500, proto.AlgoG), false, 0, params())
	if step.Action != Deliver || step.Found.Addr != target.Addr {
		t.Fatalf("step %+v", step)
	}
}

func TestGreedyForwardsToClosest(t *testing.T) {
	self := refAt(idspace.FromFraction(0.1), 0)
	near := refAt(idspace.FromFraction(0.15), 0)
	far := refAt(idspace.FromFraction(0.5), 0)
	target := idspace.FromFraction(0.52)
	step := Route(self, buildTable(near, far), lookupReq(target, proto.AlgoG), false, 0, params())
	if step.Action != Forward {
		t.Fatalf("action %v", step.Action)
	}
	if step.Next.Addr != far.Addr {
		t.Fatalf("greedy chose %v, want the closest-to-target %v", step.Next.ID, far.ID)
	}
}

func TestLevelZeroForwardsWithoutHalving(t *testing.T) {
	// Neighbour improves distance but not by half: a level-0 node forwards
	// anyway.
	self := refAt(1000, 0)
	nbr := refAt(1100, 0)
	target := idspace.ID(2000)
	step := Route(self, buildTable(nbr), lookupReq(target, proto.AlgoG), false, 0, params())
	if step.Action != Forward || step.Next.Addr != nbr.Addr {
		t.Fatalf("step %+v", step)
	}
}

func TestUpperLevelEscalatesWithoutHalving(t *testing.T) {
	// A level-2 node whose only same-level candidate improves but does not
	// halve must escalate to its superior list.
	self := refAt(idspace.FromFraction(0.2), 2)
	weak := refAt(idspace.FromFraction(0.25), 0) // improves slightly
	sup := refAt(idspace.FromFraction(0.6), 5)   // covers target: D=0
	tb := buildTable(weak)
	tb.Superiors.Upsert(sup, proto.FSuperior, 0, tb.NextVersion(), rtable.Direct)
	target := idspace.FromFraction(0.8)
	step := Route(self, tb, lookupReq(target, proto.AlgoG), false, 0, params())
	if step.Action != Forward {
		t.Fatalf("action %v", step.Action)
	}
	if step.Next.Addr != sup.Addr {
		t.Fatalf("expected escalation to superior, got %v", step.Next)
	}
}

func TestEscalateDescendsToChild(t *testing.T) {
	// A level-1 parent with no improving same-level candidate but a child
	// near the target descends.
	self := refAt(idspace.FromFraction(0.5), 1)
	child := refAt(idspace.FromFraction(0.52), 0)
	tb := rtable.New()
	tb.Children.Upsert(child, proto.FChild, 0, tb.NextVersion(), rtable.Direct)
	target := idspace.FromFraction(0.521)
	step := Route(self, tb, lookupReq(target, proto.AlgoG), false, 0, params())
	if step.Action != Forward || step.Next.Addr != child.Addr {
		t.Fatalf("step %+v", step)
	}
}

func TestEscalateToParentWhenNoSuperiors(t *testing.T) {
	self := refAt(idspace.FromFraction(0.1), 0)
	parent := refAt(idspace.FromFraction(0.3), 3)
	tb := rtable.New()
	tb.SetParent(parent, 0)
	target := idspace.FromFraction(0.9)
	step := Route(self, tb, lookupReq(target, proto.AlgoG), false, 0, params())
	if step.Action != Forward || step.Next.Addr != parent.Addr {
		t.Fatalf("step %+v", step)
	}
}

func TestEmptyTableLocalOriginDeadEnds(t *testing.T) {
	// An isolated node resolving its own request must not claim ownership
	// — acknowledging writes nobody else can find strands them silently.
	self := refAt(100, 0)
	step := Route(self, rtable.New(), lookupReq(999, proto.AlgoG), false, 0, params())
	if step.Action != NotFound {
		t.Fatalf("step %+v", step)
	}
}

func TestSenderOnlyTableDeliversSelf(t *testing.T) {
	// A remote request whose only table entry is the sender means a (at
	// least) two-node overlay: the receiver is the best owner estimate it
	// knows of, and must deliver itself rather than dead-end — otherwise a
	// two-node DHT cannot store at the remote node.
	self := refAt(100, 0)
	nbr := refAt(150, 0)
	step := Route(self, buildTable(nbr), lookupReq(999, proto.AlgoG), false, nbr.Addr, params())
	if step.Action != Deliver || step.Found.Addr != self.Addr {
		t.Fatalf("step %+v", step)
	}
}

func TestSenderExcluded(t *testing.T) {
	// The only candidate is the sender: must not bounce back.
	self := refAt(100, 0)
	nbr := refAt(150, 0)
	step := Route(self, buildTable(nbr), lookupReq(200, proto.AlgoG), false, nbr.Addr, params())
	if step.Action == Forward && step.Next.Addr == nbr.Addr {
		t.Fatal("request bounced back to sender")
	}
}

func TestNGPicksFirstImproving(t *testing.T) {
	// Candidates sorted by distance-to-target: NG takes the nearest
	// improving one, same as G here, but crucially NG does not require the
	// halving rule at upper levels.
	// better improves D (0.15L < 0.2375L) but misses the halving bound
	// (0.11875L), so G escalates while NG forwards.
	self := refAt(idspace.FromFraction(0.2), 2)
	better := refAt(idspace.FromFraction(0.35), 0)
	tb := buildTable(better)
	target := idspace.FromFraction(0.5)
	step := Route(self, tb, lookupReq(target, proto.AlgoNG), false, 0, params())
	if step.Action != Forward || step.Next.Addr != better.Addr {
		t.Fatalf("NG step %+v", step)
	}
	// G on the same table escalates (no halving, level > 0, no superiors,
	// no children) and degrades to the ring walk, reaching the same hop by
	// a different rule.
	stepG := Route(self, tb, lookupReq(target, proto.AlgoG), false, 0, params())
	if stepG.Action != Forward || stepG.Next.Addr != better.Addr {
		t.Fatalf("G step %+v", stepG)
	}
	// With an empty table a locally originated G truly dead-ends.
	if s := Route(self, rtable.New(), lookupReq(target, proto.AlgoG), false, 0, params()); s.Action != NotFound {
		t.Fatalf("empty-table G step %+v", s)
	}
}

func TestNGSACollectsAlternates(t *testing.T) {
	self := refAt(idspace.FromFraction(0.1), 0)
	c1 := refAt(idspace.FromFraction(0.3), 0)
	c2 := refAt(idspace.FromFraction(0.35), 0)
	c3 := refAt(idspace.FromFraction(0.4), 0)
	target := idspace.FromFraction(0.45)
	step := Route(self, buildTable(c1, c2, c3), lookupReq(target, proto.AlgoNGSA), false, 0, params())
	if step.Action != Forward {
		t.Fatalf("step %+v", step)
	}
	// Nearest improving candidate is c3; the others become alternates.
	if step.Next.Addr != c3.Addr {
		t.Fatalf("next %v", step.Next)
	}
	if len(step.Alternates) != 2 {
		t.Fatalf("alternates %v", step.Alternates)
	}
}

func TestNGSAFallsBackToAlternate(t *testing.T) {
	// Dead end with an alternate in the request: jump to it instead of
	// giving up.
	self := refAt(100, 0)
	alt := refAt(5000, 0)
	req := lookupReq(6000, proto.AlgoNGSA)
	req.Alternates = []proto.NodeRef{alt}
	step := Route(self, rtable.New(), req, false, 0, params())
	if step.Action != Forward || step.Next.Addr != alt.Addr {
		t.Fatalf("step %+v", step)
	}
	if len(step.Alternates) != 0 {
		t.Fatalf("alternate not consumed: %v", step.Alternates)
	}
	// NG in the same position gives up without touching the alternates.
	reqNG := lookupReq(6000, proto.AlgoNG)
	reqNG.Alternates = []proto.NodeRef{alt}
	if s := Route(self, rtable.New(), reqNG, false, 0, params()); s.Action != NotFound {
		t.Fatalf("NG should not use alternates: %+v", s)
	}
}

func TestNGSAPopsNearestAlternate(t *testing.T) {
	self := refAt(100, 0)
	farAlt := refAt(9000, 0)
	nearAlt := refAt(6100, 0)
	req := lookupReq(6000, proto.AlgoNGSA)
	req.Alternates = []proto.NodeRef{farAlt, nearAlt}
	step := Route(self, rtable.New(), req, false, 0, params())
	if step.Next.Addr != nearAlt.Addr {
		t.Fatalf("popped %v, want nearest alternate", step.Next)
	}
	if len(step.Alternates) != 1 || step.Alternates[0].Addr != farAlt.Addr {
		t.Fatalf("remaining %v", step.Alternates)
	}
}

func TestFromParentRestrictsToLevelZero(t *testing.T) {
	self := refAt(idspace.FromFraction(0.5), 0)
	l0 := refAt(idspace.FromFraction(0.55), 0)
	sup := refAt(idspace.FromFraction(0.9), 4)
	tb := buildTable(l0)
	tb.Superiors.Upsert(sup, proto.FSuperior, 0, tb.NextVersion(), rtable.Direct)
	target := idspace.FromFraction(0.56)
	step := Route(self, tb, lookupReq(target, proto.AlgoG), true, 0, params())
	if step.Action != Forward || step.Next.Addr != l0.Addr {
		t.Fatalf("step %+v", step)
	}
	// With no level-0 progress available, a parent-delegated node is the
	// positionally nearest node it knows of — it delivers itself as the
	// owner (never re-escalates: that is the ping-pong Figure 3 forbids).
	tbEmpty := rtable.New()
	tbEmpty.Superiors.Upsert(sup, proto.FSuperior, 0, tbEmpty.NextVersion(), rtable.Direct)
	step = Route(self, tbEmpty, lookupReq(target, proto.AlgoG), true, 0, params())
	if step.Action != Deliver || step.Found.Addr != self.Addr {
		t.Fatalf("step %+v", step)
	}
}

func TestEuclideanFallbackAfterHeightHops(t *testing.T) {
	// A high-level far node beats a near level-0 node under the paper
	// model, but after Hops > Height the Euclidean fallback prefers the
	// near node.
	// farHigh at level 5 covers L/2: its distance to the target (0.45L
	// away) is 0 under the paper model but large under Euclidean.
	self := refAt(idspace.FromFraction(0.1), 0)
	nearL0 := refAt(idspace.FromFraction(0.3), 0)
	farHigh := refAt(idspace.FromFraction(0.8), 5)
	target := idspace.FromFraction(0.35)
	tb := buildTable(nearL0, farHigh)

	req := lookupReq(target, proto.AlgoG)
	req.Hops = 0
	step := Route(self, tb, req, false, 0, params())
	if step.Action != Forward || step.Next.Addr != farHigh.Addr {
		t.Fatalf("paper-model step %+v, want high-level node (D=0)", step)
	}

	req2 := lookupReq(target, proto.AlgoG)
	req2.Hops = 7 // > height 6
	step = Route(self, tb, req2, false, 0, params())
	if step.Action != Forward || step.Next.Addr != nearL0.Addr {
		t.Fatalf("euclidean-fallback step %+v, want near node", step)
	}
}

func TestMergeAlternatesDedupAndCap(t *testing.T) {
	old := []proto.NodeRef{{ID: 1, Addr: 1}, {ID: 2, Addr: 2}}
	fresh := []proto.NodeRef{{ID: 2, Addr: 2}, {ID: 3, Addr: 3}, {ID: 4, Addr: 4}}
	out := mergeAlternates(old, fresh, 3)
	if len(out) != 3 {
		t.Fatalf("len %d", len(out))
	}
	seen := map[uint64]bool{}
	for _, r := range out {
		if seen[r.Addr] {
			t.Fatal("duplicate in merged alternates")
		}
		seen[r.Addr] = true
	}
	if got := mergeAlternates(old, nil, 3); len(got) != 2 {
		t.Fatal("no fresh: keep old")
	}
}

// TestRouteAllocs pins what a decision allocates on a warmed scratch: G
// and NG nothing, in every regime and delegated from the parent or not;
// NGSA at most the alternates list it hands on.
func TestRouteAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := params()
	var sc Scratch
	for trial := 0; trial < 100; trial++ {
		selfAddr := rng.Uint64()%1000 + 1
		self := proto.NodeRef{ID: idspace.ID(rng.Uint64()), Addr: selfAddr, MaxLevel: uint8(rng.Intn(7))}
		tb := randomTable(rng, selfAddr)
		sender := rng.Uint64()%1100 + 1
		sc.Excluded = Excluded{rng.Uint64()%1000 + 1}
		for _, hops := range []uint8{0, p.Height + 1, uint8(p.HopBudget() + 1)} {
			for _, fromParent := range []bool{false, true} {
				for _, algo := range []proto.Algo{proto.AlgoG, proto.AlgoNG, proto.AlgoNGSA} {
					req := &proto.LookupRequest{Target: idspace.ID(rng.Uint64()), TTL: 255, Hops: hops, Algo: algo,
						Alternates: []proto.NodeRef{{ID: idspace.ID(rng.Uint64()), Addr: 3000}}}
					allocs := testing.AllocsPerRun(5, func() { RouteWith(&sc, self, tb, req, fromParent, sender, p) })
					limit := 0.0
					if algo == proto.AlgoNGSA {
						limit = 1
					}
					if allocs > limit {
						t.Fatalf("trial %d: %v at %d hops (fromParent %v) allocates %.1f, limit %.0f", trial, algo, hops, fromParent, allocs, limit)
					}
				}
			}
		}
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{Deliver: "deliver", Forward: "forward", NotFound: "not-found", Drop: "drop", Action(9): "action(?)"} {
		if a.String() != want {
			t.Errorf("%d -> %q", a, a.String())
		}
	}
}

// TestOwnerDeliversBeforeTheHierarchy: a level-0 node nearer to x than
// both its ring contacts owns x, whatever covers x above it. A covering
// level-3 superior (D = 0) satisfies the halving rule and is NG's first
// improving candidate, so with the owner check behind the hierarchy every
// algorithm would send the request up, away from its owner.
func TestOwnerDeliversBeforeTheHierarchy(t *testing.T) {
	self := refAt(idspace.FromFraction(0.5), 0)
	left := refAt(idspace.FromFraction(0.49), 0)
	right := refAt(idspace.FromFraction(0.52), 0)
	sup := refAt(idspace.FromFraction(0.55), 3) // covers L/8 around it: D = 0
	tb := buildTable(left, right)
	tb.Superiors.Upsert(sup, proto.FSuperior, 0, tb.NextVersion(), rtable.Direct)
	target := idspace.FromFraction(0.501)
	if d := paperD(sup, target); d != 0 {
		t.Fatalf("superior D = %v, want 0", d)
	}
	for _, algo := range []proto.Algo{proto.AlgoG, proto.AlgoNG, proto.AlgoNGSA} {
		for _, sender := range []uint64{0, left.Addr} {
			step := Route(self, tb, lookupReq(target, algo), false, sender, params())
			if step.Action != Deliver || step.Found.Addr != self.Addr || step.Strict {
				t.Fatalf("%v from %d: step %+v, want Deliver self", algo, sender, step)
			}
		}
	}
}

// TestEscalateStepsToANearerPeer: a parentless level-1 node without
// superiors or children, whose only ring contact lies the far side of it,
// knows one bus neighbour strictly Euclidean-closer to x. That neighbour
// does not halve the model distance, so G escalates, and every rung of
// the escalation comes up empty. The owner check has ruled out delivering
// here, so the decision steps to that neighbour rather than answer
// not-found with a closer peer in hand. Excluded, it leaves self the
// nearest node known, and the owner check delivers here.
func TestEscalateStepsToANearerPeer(t *testing.T) {
	self := refAt(idspace.FromFraction(0.2), 1)
	ring := refAt(idspace.FromFraction(0.1), 0)
	bus := refAt(idspace.FromFraction(0.33), 1)
	tb := buildTable(ring)
	tb.BusLevel(1).Upsert(bus, proto.FNeighbor, 1, tb.NextVersion(), rtable.Direct)
	target := idspace.FromFraction(0.5)
	if dSelf, dBus := paperD(self, target), paperD(bus, target); dBus >= dSelf || dBus <= dSelf/2 {
		t.Fatalf("D(bus) = %v against D(self) = %v: want an improvement short of halving", dBus, dSelf)
	}
	step := Route(self, tb, lookupReq(target, proto.AlgoG), false, 0, params())
	if step.Action != Forward || step.Next.Addr != bus.Addr {
		t.Fatalf("step %+v, want a forward to the bus neighbour", step)
	}
	sc := Scratch{Excluded: Excluded{bus.Addr}}
	if step := RouteWith(&sc, self, tb, lookupReq(target, proto.AlgoG), false, 0, params()); step.Action != Deliver || step.Found.Addr != self.Addr {
		t.Fatalf("bus neighbour excluded: step %+v, want Deliver self", step)
	}
}
