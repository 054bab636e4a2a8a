package routing

import (
	"math/rand"
	"testing"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// walkNode is one peer of a hand-built static overlay.
type walkNode struct {
	self   proto.NodeRef
	tbl    *rtable.Table
	parent uint64
}

// walk follows Route decisions over static tables, as the simulator would
// with nothing changing underneath, and returns the path (addresses), the
// final step and the hop count it was taken at.
func walk(t *testing.T, nodes map[uint64]*walkNode, start uint64, req proto.LookupRequest, p Params) (path []uint64, last Step, hops uint8) {
	t.Helper()
	cur, sender := start, uint64(0)
	for {
		n := nodes[cur]
		path = append(path, cur)
		step := Route(n.self, n.tbl, &req, sender != 0 && sender == n.parent, sender, p)
		if step.Action != Forward {
			return path, step, req.Hops
		}
		if _, ok := nodes[step.Next.Addr]; !ok {
			t.Fatalf("walk left the overlay at %d → %v", cur, step.Next)
		}
		req.TTL--
		req.Hops++
		req.Alternates = step.Alternates
		sender, cur = cur, step.Next.Addr
	}
}

// TestFivePeerCycleEndsAtTheHopBudget rebuilds the cycle the churn
// benchmark's TTL deaths were made of. A level-2 peer A, 5·10¹⁵ from the
// target, knows a closer peer B that is not its child; B is not twice as
// close, so the halving rule rejects it, and A — not at level 0 — climbs:
// no superior satisfies the rule either, so the request goes to the
// highest one, the level-6 root. The root sends it down again by halving
// steps, P5 → P4 → P3, and P3 hands it to A, the nearest peer it knows.
// A's decision has not changed. Before the hop budget this went on until
// the TTL ran out (103–255 hops seen); past the budget A may only move
// strictly closer, which is B.
func TestFivePeerCycleEndsAtTheHopBudget(t *testing.T) {
	const unit = 1e15
	x := idspace.FromFraction(0.5)
	at := func(off float64, lvl uint8) proto.NodeRef { return refAt(x-idspace.ID(off*unit), lvl) }
	a, b, owner := at(5, 2), at(3, 0), at(0.1, 0)
	q := at(27, 3)                                  // A's parent: further out, fails the halving rule too
	p3, p4, p5 := at(18, 3), at(180, 4), at(900, 5) // the way down from the root
	root := refAt(idspace.FromFraction(0.9), 6)

	mk := func(self proto.NodeRef, parent proto.NodeRef, fill func(tb *rtable.Table)) *walkNode {
		tb := rtable.New()
		if !parent.IsZero() {
			tb.SetParent(parent, 0)
		}
		fill(tb)
		return &walkNode{self: self, tbl: tb, parent: parent.Addr}
	}
	add := func(s *rtable.Set, flags proto.EntryFlag, refs ...proto.NodeRef) {
		for _, r := range refs {
			s.Upsert(r, flags, 0, 1, rtable.Direct)
		}
	}
	nodes := map[uint64]*walkNode{
		a.Addr: mk(a, q, func(tb *rtable.Table) {
			add(&tb.NbrChildren, proto.FChild|proto.FIndirect, b) // closer, but neither child nor ring contact
			add(&tb.Superiors, proto.FSuperior, root)
		}),
		root.Addr: mk(root, proto.NodeRef{}, func(tb *rtable.Table) { add(&tb.Children, proto.FChild, p5) }),
		p5.Addr:   mk(p5, root, func(tb *rtable.Table) { add(&tb.Children, proto.FChild, p4) }),
		p4.Addr:   mk(p4, p5, func(tb *rtable.Table) { add(&tb.Children, proto.FChild, p3) }),
		// The tables are a snapshot of an overlay in motion: P4 still lists
		// P3 as a child, P3 has since re-parented (a delegation from one's
		// own parent is a level-0 search and would end the walk there), and
		// P3 knows A only as a neighbour's child.
		p3.Addr:    mk(p3, q, func(tb *rtable.Table) { add(&tb.NbrChildren, proto.FChild|proto.FIndirect, a) }),
		q.Addr:     mk(q, p4, func(tb *rtable.Table) { add(&tb.Children, proto.FChild, a) }),
		b.Addr:     mk(b, a, func(tb *rtable.Table) { add(&tb.Level0, proto.FNeighbor, owner) }),
		owner.Addr: mk(owner, a, func(tb *rtable.Table) { add(&tb.Level0, proto.FNeighbor, b) }),
	}

	p := params()
	// The request reaches A already past the hierarchy's height, as the
	// observed ones did: the distance is plain Euclidean from here on.
	req := proto.LookupRequest{Origin: refAt(1, 0), Target: x, TTL: 255 - 7, Hops: 7, Algo: proto.AlgoG}
	path, last, hops := walk(t, nodes, a.Addr, req, p)

	if last.Action != Deliver || last.Found.Addr != owner.Addr {
		t.Fatalf("walk ended %v at %v after %d hops, path %v", last.Action, last.Found, hops, path)
	}
	visitsA := 0
	for _, addr := range path {
		if addr == a.Addr {
			visitsA++
		}
	}
	if visitsA < 2 {
		t.Fatalf("the fixture no longer cycles before the budget (A visited %d×, path %v): it tests nothing", visitsA, path)
	}
	// One lap is five peers; the walk may be anywhere in a lap when the
	// budget runs out, then needs at most the lap's descent plus A → B →
	// owner.
	if max := p.HopBudget() + 6; int(hops) > max {
		t.Fatalf("walk took %d hops, budget %d should end it by %d; path %v", hops, p.HopBudget(), max, path)
	}
}

// TestStrictRegimeStrictlyDecreasesDistance is the property the hop budget
// rests on: past it, whatever the table holds and whoever sent the
// request, a forward goes to a peer strictly Euclidean-closer to the
// target than the deciding node (so no walk can revisit a node), and a
// node with nobody closer answers as the owner instead of giving up.
func TestStrictRegimeStrictlyDecreasesDistance(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	p := params()
	for trial := 0; trial < 3000; trial++ {
		selfAddr := rng.Uint64()%1000 + 1
		self := proto.NodeRef{ID: idspace.ID(rng.Uint64()), Addr: selfAddr, MaxLevel: uint8(rng.Intn(7))}
		tb := randomTable(rng, selfAddr)
		req := &proto.LookupRequest{
			Origin: proto.NodeRef{ID: 1, Addr: 2000},
			Target: idspace.ID(rng.Uint64()),
			TTL:    uint8(1 + rng.Intn(255)),
			Hops:   uint8(p.HopBudget() + 1 + rng.Intn(200)),
			Algo:   proto.Algo(rng.Intn(3)),
		}
		sender := rng.Uint64()%1100 + 1
		step := Route(self, tb, req, rng.Intn(4) == 0, sender, p)
		if _, inTable := tb.FindID(req.Target); inTable {
			continue // resolved from the table, in any regime
		}
		switch step.Action {
		case Forward:
			if !step.Strict {
				t.Fatalf("trial %d: forward past the budget not marked strict", trial)
			}
			if idspace.Dist(step.Next.ID, req.Target) >= idspace.Dist(self.ID, req.Target) {
				t.Fatalf("trial %d: strict forward from %v to %v does not approach %v", trial, self.ID, step.Next.ID, req.Target)
			}
			// And it is the nearest there is.
			for _, c := range tb.Candidates(nil) {
				if c.Addr != sender && c.Addr != selfAddr && idspace.Dist(c.ID, req.Target) < idspace.Dist(step.Next.ID, req.Target) {
					t.Fatalf("trial %d: %v is nearer than the chosen %v", trial, c, step.Next)
				}
			}
		case Deliver:
			if step.Found.Addr != selfAddr {
				t.Fatalf("trial %d: delivered %v", trial, step.Found)
			}
			for _, c := range tb.Candidates(nil) {
				if c.Addr != sender && c.Addr != selfAddr && idspace.Dist(c.ID, req.Target) < idspace.Dist(self.ID, req.Target) {
					t.Fatalf("trial %d: owner estimate with %v closer", trial, c)
				}
			}
		default:
			t.Fatalf("trial %d: relayed request past the budget ended %v", trial, step.Action)
		}
	}
}

// TestBudgetLeavesShortWalksAlone: at or below the budget nothing is
// strict, so every decision the hierarchy's rules made before still stands.
func TestBudgetLeavesShortWalksAlone(t *testing.T) {
	p := params()
	if p.HopBudget() != 14 {
		t.Fatalf("budget %d for height 6", p.HopBudget())
	}
	self := refAt(idspace.FromFraction(0.3), 2)
	sup := refAt(idspace.FromFraction(0.9), 6)
	tb := rtable.New()
	tb.Superiors.Upsert(sup, proto.FSuperior, 0, 1, rtable.Direct)
	tb.NbrChildren.Upsert(refAt(idspace.FromFraction(0.31), 0), proto.FChild, 0, 1, rtable.Direct)
	req := lookupReq(idspace.FromFraction(0.5), proto.AlgoG)
	req.Hops = uint8(p.HopBudget())
	if step := Route(self, tb, req, false, 0, p); step.Strict || step.Next.Addr != sup.Addr {
		t.Fatalf("at the budget the climb still applies: %+v", step)
	}
	req.Hops++
	if step := Route(self, tb, req, false, 0, p); !step.Strict || step.Next.Addr == sup.Addr {
		t.Fatalf("past the budget only strict progress: %+v", step)
	}
}

// TestExcludedPeersAreInvisible drives every branch that picks a next hop
// — candidate set, parent delegation, child descent, ring walk, climb,
// NGSA fall-back — with its natural choice excluded.
func TestExcludedPeersAreInvisible(t *testing.T) {
	p := params()
	x := idspace.FromFraction(0.5)
	route := func(self proto.NodeRef, tb *rtable.Table, req *proto.LookupRequest, fromParent bool, sender uint64, ex ...uint64) Step {
		sc := Scratch{Excluded: ex}
		return RouteWith(&sc, self, tb, req, fromParent, sender, p)
	}
	direct := func(s *rtable.Set, flags proto.EntryFlag, refs ...proto.NodeRef) {
		for _, r := range refs {
			s.Upsert(r, flags, 0, 1, rtable.Direct)
		}
	}

	t.Run("candidates", func(t *testing.T) {
		self := refAt(idspace.FromFraction(0.1), 0)
		near, far := refAt(idspace.FromFraction(0.49), 0), refAt(idspace.FromFraction(0.4), 0)
		tb := buildTable(near, far)
		for _, algo := range []proto.Algo{proto.AlgoG, proto.AlgoNG, proto.AlgoNGSA} {
			if step := route(self, tb, lookupReq(x, algo), false, 0); step.Next.Addr != near.Addr {
				t.Fatalf("%v: baseline chose %v", algo, step.Next)
			}
			if step := route(self, tb, lookupReq(x, algo), false, 0, near.Addr); step.Action != Forward || step.Next.Addr != far.Addr {
				t.Fatalf("%v: with the nearest excluded got %+v", algo, step)
			}
		}
		// Everything excluded: a relayed request ends here, as if the
		// table held the sender alone.
		if step := route(self, tb, lookupReq(x, proto.AlgoG), false, 77, near.Addr, far.Addr); step.Action != Deliver || step.Found.Addr != self.Addr {
			t.Fatalf("all excluded: %+v", step)
		}
	})

	t.Run("parent delegation", func(t *testing.T) {
		self := refAt(idspace.FromFraction(0.4), 1)
		ring, child, child2 := refAt(idspace.FromFraction(0.45), 0), refAt(idspace.FromFraction(0.47), 0), refAt(idspace.FromFraction(0.46), 0)
		parent := refAt(idspace.FromFraction(0.2), 2)
		tb := buildTable(ring)
		direct(&tb.Children, proto.FChild, child, child2)
		tb.SetParent(parent, 0)
		if step := route(self, tb, lookupReq(x, proto.AlgoG), true, parent.Addr, ring.Addr); step.Next.Addr != child.Addr {
			t.Fatalf("ring contact excluded: %+v", step)
		}
		if step := route(self, tb, lookupReq(x, proto.AlgoG), true, parent.Addr, ring.Addr, child.Addr); step.Next.Addr != child2.Addr {
			t.Fatalf("ring contact and nearest child excluded: %+v", step)
		}
		if step := route(self, tb, lookupReq(x, proto.AlgoG), true, parent.Addr, ring.Addr, child.Addr, child2.Addr); step.Action != Deliver || step.Found.Addr != self.Addr {
			t.Fatalf("nobody left closer: %+v", step)
		}
	})

	t.Run("climb", func(t *testing.T) {
		self := refAt(idspace.FromFraction(0.3), 2)
		hint := refAt(idspace.FromFraction(0.31), 0) // closer, fails the halving rule
		top, parent := refAt(idspace.FromFraction(0.9), 6), refAt(idspace.FromFraction(0.28), 3)
		tb := rtable.New()
		direct(&tb.NbrChildren, proto.FChild, hint)
		direct(&tb.Superiors, proto.FSuperior, top)
		tb.SetParent(parent, 0)
		if step := route(self, tb, lookupReq(x, proto.AlgoG), false, 0); step.Next.Addr != top.Addr {
			t.Fatalf("baseline climb: %+v", step)
		}
		if step := route(self, tb, lookupReq(x, proto.AlgoG), false, 0, top.Addr); step.Next.Addr != parent.Addr {
			t.Fatalf("top superior excluded: %+v", step)
		}
		if step := route(self, tb, lookupReq(x, proto.AlgoG), false, 0, top.Addr, parent.Addr); step.Action == Forward && (step.Next.Addr == top.Addr || step.Next.Addr == parent.Addr) {
			t.Fatalf("both excluded: %+v", step)
		}
	})

	t.Run("ngsa fall-back", func(t *testing.T) {
		self := refAt(idspace.FromFraction(0.4), 0)
		alt1, alt2 := refAt(idspace.FromFraction(0.49), 0), refAt(idspace.FromFraction(0.45), 0)
		req := lookupReq(x, proto.AlgoNGSA)
		req.Alternates = []proto.NodeRef{alt1, alt2}
		if step := route(self, rtable.New(), req, false, 0, alt1.Addr); step.Action != Forward || step.Next.Addr != alt2.Addr {
			t.Fatalf("excluded alternate taken or none: %+v", step)
		}
		if step := route(self, rtable.New(), req, false, 0, alt1.Addr, alt2.Addr); step.Action != NotFound {
			t.Fatalf("all alternates excluded: %+v", step)
		}
	})
}
