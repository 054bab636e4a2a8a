package routing

import (
	"math/rand"
	"testing"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// randomTable builds a table with random content in every structure.
func randomTable(rng *rand.Rand, selfAddr uint64) *rtable.Table {
	tb := rtable.New()
	addRef := func() proto.NodeRef {
		return proto.NodeRef{
			ID:       idspace.ID(rng.Uint64()),
			Addr:     rng.Uint64()%1000 + 1,
			MaxLevel: uint8(rng.Intn(7)),
			Score:    uint16(rng.Intn(65536)),
		}
	}
	for i := 0; i < rng.Intn(8); i++ {
		tb.Level0.Upsert(addRef(), proto.FNeighbor, 0, tb.NextVersion(), rtable.Direct)
	}
	for i := 0; i < rng.Intn(6); i++ {
		lvl := uint8(1 + rng.Intn(5))
		tb.BusLevel(lvl).Upsert(addRef(), proto.FNeighbor, 0, tb.NextVersion(), rtable.Direct)
	}
	for i := 0; i < rng.Intn(5); i++ {
		tb.Children.Upsert(addRef(), proto.FChild, 0, tb.NextVersion(), rtable.Direct)
	}
	for i := 0; i < rng.Intn(4); i++ {
		tb.Superiors.Upsert(addRef(), proto.FSuperior, 0, tb.NextVersion(), rtable.Direct)
	}
	if rng.Intn(2) == 0 {
		p := addRef()
		p.MaxLevel = uint8(1 + rng.Intn(6))
		tb.SetParent(p, 0)
	}
	// The table never contains the node itself.
	tb.RemoveEverywhere(selfAddr)
	return tb
}

// TestRoutePropertyInvariants fuzzes Route over random tables and checks
// the decision invariants that the protocol relies on.
func TestRoutePropertyInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	p := params()
	for trial := 0; trial < 3000; trial++ {
		selfAddr := rng.Uint64()%1000 + 1
		self := proto.NodeRef{
			ID:       idspace.ID(rng.Uint64()),
			Addr:     selfAddr,
			MaxLevel: uint8(rng.Intn(7)),
		}
		tb := randomTable(rng, selfAddr)
		sender := rng.Uint64() % 1100
		target := idspace.ID(rng.Uint64())
		if rng.Intn(4) == 0 {
			target = self.ID // sometimes look up ourselves
		}
		req := &proto.LookupRequest{
			Origin: proto.NodeRef{ID: 1, Addr: 2000},
			Target: target,
			TTL:    uint8(rng.Intn(256)),
			Hops:   uint8(rng.Intn(256)),
			Algo:   proto.Algo(rng.Intn(3)),
		}
		if rng.Intn(3) == 0 && len(req.Alternates) == 0 {
			req.Alternates = []proto.NodeRef{{ID: idspace.ID(rng.Uint64()), Addr: 3000}}
		}
		fromParent := rng.Intn(4) == 0

		step := Route(self, tb, req, fromParent, sender, p)

		switch step.Action {
		case Forward:
			if step.Next.IsZero() {
				t.Fatalf("trial %d: forward to zero ref", trial)
			}
			if step.Next.Addr == selfAddr {
				t.Fatalf("trial %d: forward to self", trial)
			}
			if step.Next.Addr == sender && step.Next.Addr != 3000 {
				t.Fatalf("trial %d: bounced to sender (%+v)", trial, step)
			}
		case Deliver:
			if step.Found.IsZero() {
				t.Fatalf("trial %d: delivered zero ref", trial)
			}
		case Drop:
			if req.TTL != 0 {
				t.Fatalf("trial %d: dropped with TTL %d", trial, req.TTL)
			}
		}
		if req.TTL == 0 && step.Action != Drop {
			t.Fatalf("trial %d: TTL 0 must drop, got %v", trial, step.Action)
		}
		if target == self.ID && req.TTL > 0 {
			if step.Action != Deliver || step.Found.Addr != selfAddr {
				t.Fatalf("trial %d: self-target must deliver self, got %+v", trial, step)
			}
		}
	}
}

// TestRouteDoesNotMutateRequest verifies zero-copy transport safety: the
// decision function must treat the request as read-only.
func TestRouteDoesNotMutateRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	p := params()
	for trial := 0; trial < 500; trial++ {
		selfAddr := rng.Uint64()%1000 + 1
		self := proto.NodeRef{ID: idspace.ID(rng.Uint64()), Addr: selfAddr, MaxLevel: uint8(rng.Intn(7))}
		tb := randomTable(rng, selfAddr)
		req := &proto.LookupRequest{
			Origin:     proto.NodeRef{ID: 1, Addr: 2000},
			Target:     idspace.ID(rng.Uint64()),
			TTL:        uint8(1 + rng.Intn(255)),
			Hops:       uint8(rng.Intn(200)),
			Algo:       proto.Algo(rng.Intn(3)),
			Alternates: []proto.NodeRef{{ID: 7, Addr: 3000}},
		}
		before := *req
		altBefore := append([]proto.NodeRef(nil), req.Alternates...)
		_ = Route(self, tb, req, false, 0, p)
		if req.Target != before.Target || req.TTL != before.TTL ||
			req.Hops != before.Hops || req.Algo != before.Algo || req.Origin != before.Origin {
			t.Fatalf("trial %d: request scalar fields mutated", trial)
		}
		for i := range altBefore {
			if req.Alternates[i] != altBefore[i] {
				t.Fatalf("trial %d: alternates mutated in place", trial)
			}
		}
	}
}

// TestGreedyPathTerminates replays greedy routing over a static random
// overlay graph and checks that TTL always bounds wandering (the paper
// admits G is not loop-free; the TTL is the guard).
func TestGreedyPathTerminates(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	p := params()
	// A static population of tables.
	n := 40
	selves := make([]proto.NodeRef, n)
	tables := make([]*rtable.Table, n)
	for i := range selves {
		selves[i] = proto.NodeRef{ID: idspace.ID(rng.Uint64()), Addr: uint64(i + 1), MaxLevel: uint8(rng.Intn(4))}
	}
	for i := range tables {
		tables[i] = rtable.New()
		for j := 0; j < 6; j++ {
			other := selves[rng.Intn(n)]
			if other.Addr == selves[i].Addr {
				continue
			}
			tables[i].Level0.Upsert(other, proto.FNeighbor, 0, tables[i].NextVersion(), rtable.Direct)
		}
	}
	byAddr := map[uint64]int{}
	for i, s := range selves {
		byAddr[s.Addr] = i
	}
	for trial := 0; trial < 200; trial++ {
		cur := rng.Intn(n)
		req := &proto.LookupRequest{
			Origin: selves[cur], Target: idspace.ID(rng.Uint64()),
			TTL: 255, Algo: proto.Algo(rng.Intn(3)),
		}
		var from uint64
		steps := 0
		for {
			steps++
			if steps > 300 {
				t.Fatalf("trial %d: walk exceeded TTL bound", trial)
			}
			step := Route(selves[cur], tables[cur], req, false, from, p)
			if step.Action != Forward {
				break
			}
			from = selves[cur].Addr
			next, ok := byAddr[step.Next.Addr]
			if !ok {
				break
			}
			req.TTL--
			req.Hops++
			req.Alternates = step.Alternates
			cur = next
		}
	}
}
