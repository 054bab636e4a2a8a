package rtable

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
)

func TestNearestInRange(t *testing.T) {
	tb := New()
	now := time.Second
	add := func(s *Set, id idspace.ID, addr uint64) {
		s.Upsert(ref(id, addr), proto.FNeighbor, now, tb.NextVersion(), Direct)
	}
	add(&tb.Level0, 100, 1)
	add(&tb.Level0, 300, 3)
	add(tb.BusLevel(1), 200, 2)
	add(&tb.Children, 250, 4)
	add(&tb.Superiors, 260, 5)
	tb.SetParent(ref(280, 6), now)

	// Nearest to 290 within [150, 290]: the parent at 280.
	if r, ok := tb.NearestInRange(150, 290, 290, 0); !ok || r.Addr != 6 {
		t.Fatalf("want parent (addr 6), got %v ok=%v", r, ok)
	}
	// Excluding the parent's address falls back to the superior at 260.
	if r, ok := tb.NearestInRange(150, 290, 290, 6); !ok || r.Addr != 5 {
		t.Fatalf("want superior (addr 5), got %v ok=%v", r, ok)
	}
	// Bus and child entries are candidates too: nearest to 150 is 200.
	if r, ok := tb.NearestInRange(150, 240, 150, 0); !ok || r.Addr != 2 {
		t.Fatalf("want bus entry (addr 2), got %v ok=%v", r, ok)
	}
	// Empty interval (lo > hi) and intervals with no member find nothing.
	if _, ok := tb.NearestInRange(500, 400, 450, 0); ok {
		t.Fatal("lo > hi must be empty")
	}
	if _, ok := tb.NearestInRange(301, 400, 301, 0); ok {
		t.Fatal("no member in [301, 400]")
	}
	// Bounds are inclusive.
	if r, ok := tb.NearestInRange(300, 300, 300, 0); !ok || r.Addr != 3 {
		t.Fatalf("inclusive bound missed entry at 300: %v ok=%v", r, ok)
	}
}

func TestNearestInRangeDeterministicTieBreak(t *testing.T) {
	tb := New()
	now := time.Second
	// Two entries equidistant from 200; the lower ID must win regardless
	// of insertion order.
	tb.Level0.Upsert(ref(190, 9), proto.FNeighbor, now, tb.NextVersion(), Direct)
	tb.Level0.Upsert(ref(210, 8), proto.FNeighbor, now, tb.NextVersion(), Direct)
	r, ok := tb.NearestInRange(0, idspace.MaxID, 200, 0)
	if !ok || r.Addr != 9 {
		t.Fatalf("tie must break to lower ID: got %v ok=%v", r, ok)
	}
}

func TestNearestInRangeNoAlloc(t *testing.T) {
	tb := New()
	now := time.Second
	for i := uint64(1); i <= 16; i++ {
		tb.Level0.Upsert(ref(idspace.ID(i*100), i), proto.FNeighbor, now, tb.NextVersion(), Direct)
	}
	allocs := testing.AllocsPerRun(100, func() {
		tb.NearestInRange(0, idspace.MaxID, 800, 3)
	})
	if allocs != 0 {
		t.Fatalf("NearestInRange allocates %.1f per call; must be 0 (sweep path)", allocs)
	}
}

// TestNearerOrder: proto.Nearer is a strict total order on distinct (ID,
// address) pairs, and the nearest-peer queries agree with it: Set.Nearest,
// with and without a skip list, and NearestInRange over the full range.
// The IDs crowd within 4 of x, so equidistant pairs either side of it and
// equal IDs with different addresses are common.
func TestNearerOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	const x = idspace.ID(1000)
	for trial := 0; trial < 500; trial++ {
		var refs []proto.NodeRef
		s, tb := NewSet(), New()
		for addr, n := uint64(1), uint64(1+rng.Intn(12)); addr <= n; addr++ {
			r := ref(x+idspace.ID(rng.Intn(9))-4, addr)
			refs = append(refs, r)
			s.Upsert(r, 0, 0, 1, Direct)
			switch rng.Intn(6) {
			case 1:
				tb.BusLevel(uint8(1+rng.Intn(3))).Upsert(r, 0, 0, 1, Direct)
			case 2:
				tb.Children.Upsert(r, 0, 0, 1, Direct)
			case 3:
				tb.NbrChildren.Upsert(r, 0, 0, 1, Direct)
			case 4:
				tb.Superiors.Upsert(r, 0, 0, 1, Direct)
			case 5:
				tb.SetParent(r, 0) // the parent slot is one: a later one displaces it
				tb.Level0.Upsert(r, 0, 0, 1, Direct)
			default:
				tb.Level0.Upsert(r, 0, 0, 1, Direct)
			}
		}
		for _, a := range refs {
			if proto.Nearer(x, a, a) {
				t.Fatalf("%v nearer than itself", a)
			}
			for _, b := range refs {
				if a != b && proto.Nearer(x, a, b) == proto.Nearer(x, b, a) {
					t.Fatalf("%v and %v not ordered", a, b)
				}
				for _, c := range refs {
					if proto.Nearer(x, a, b) && proto.Nearer(x, b, c) && !proto.Nearer(x, a, c) {
						t.Fatalf("not transitive: %v, %v, %v", a, b, c)
					}
				}
			}
		}
		// first reports whether r is first in the order among the refs not
		// in skip.
		first := func(r proto.NodeRef, skip []uint64) bool {
			for _, o := range refs {
				if !slices.Contains(skip, o.Addr) && proto.Nearer(x, o, r) {
					return false
				}
			}
			return !slices.Contains(skip, r.Addr)
		}
		var skip []uint64
		for _, r := range refs {
			if rng.Intn(3) == 0 {
				skip = append(skip, r.Addr)
			}
		}
		if r, ok := s.Nearest(x, nil); !ok || !first(r, nil) {
			t.Fatalf("Set.Nearest = %v in %v", r, refs)
		}
		if r, ok := s.Nearest(x, skip); ok != (len(skip) < len(refs)) || ok && !first(r, skip) {
			t.Fatalf("Set.Nearest skipping %v = %v, %v in %v", skip, r, ok, refs)
		}
		if r, ok := tb.NearestInRange(0, idspace.MaxID, x, 0); !ok || !first(r, nil) {
			t.Fatalf("NearestInRange = %v in %v", r, refs)
		}
	}
}
