package rtable

import (
	"fmt"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
)

func TestTableParentSlot(t *testing.T) {
	tb := New()
	if _, ok := tb.Parent(); ok {
		t.Fatal("fresh table has no parent")
	}
	p := ref(50, 7)
	tb.SetParent(p, time.Second)
	got, ok := tb.Parent()
	if !ok || got.Addr != 7 {
		t.Fatal("parent not set")
	}
	tb.ClearParent()
	if _, ok := tb.Parent(); ok {
		t.Fatal("parent not cleared")
	}
}

func TestTableParentExpiry(t *testing.T) {
	tb := New()
	tb.SetParent(ref(50, 7), 0)
	if tb.ParentExpired(time.Second, 5*time.Second) {
		t.Fatal("fresh parent expired")
	}
	if !tb.ParentExpired(6*time.Second, 5*time.Second) {
		t.Fatal("stale parent not expired")
	}
	tb.SetParent(ref(50, 7), 0)
	tb.touchParent(7, 6*time.Second)
	if tb.ParentExpired(8*time.Second, 5*time.Second) {
		t.Fatal("touched parent should be fresh")
	}
	tb.touchParent(99, 100*time.Second) // wrong addr: no-op
	if !tb.ParentExpired(100*time.Second, 5*time.Second) {
		t.Fatal("touch with wrong addr must not refresh")
	}
}

func TestTableTouchEverywhere(t *testing.T) {
	tb := New()
	tb.Level0.Upsert(ref(10, 1), 0, 0, tb.NextVersion(), Direct)
	tb.BusLevel(2).Upsert(ref(10, 1), 0, 0, tb.NextVersion(), Direct)
	tb.Children.Upsert(ref(10, 1), 0, 0, tb.NextVersion(), Direct)
	tb.SetParent(ref(10, 1), 0)
	tb.Touch(1, 9*time.Second)
	if tb.Level0.Get(1).LastSeen != 9*time.Second ||
		tb.BusLevel(2).Get(1).LastSeen != 9*time.Second ||
		tb.Children.Get(1).LastSeen != 9*time.Second {
		t.Fatal("touch must refresh all structures")
	}
	if tb.ParentExpired(10*time.Second, 5*time.Second) {
		t.Fatal("touch must refresh parent")
	}
}

func TestRemoveEverywhere(t *testing.T) {
	tb := New()
	tb.Level0.Upsert(ref(10, 1), 0, 0, 1, Direct)
	tb.BusLevel(1).Upsert(ref(10, 1), 0, 0, 1, Direct)
	tb.Superiors.Upsert(ref(10, 1), 0, 0, 1, Direct)
	tb.SetParent(ref(10, 1), 0)
	removed, parentLost := tb.RemoveEverywhere(1)
	if !removed || !parentLost {
		t.Fatalf("removed=%v parentLost=%v", removed, parentLost)
	}
	if tb.Size() != 0 {
		t.Fatalf("size %d after removal", tb.Size())
	}
	removed, parentLost = tb.RemoveEverywhere(1)
	if removed || parentLost {
		t.Fatal("second removal must be a no-op")
	}
}

// TestTableSweepBusSpans: the bus removals come back as ascending (level,
// refs) pairs, each span holding exactly its level's expired refs in ID
// order — also when the shared backing array moved while it was filled,
// and when two tables sweep through one Scratch in turn.
func TestTableSweepBusSpans(t *testing.T) {
	sc := &Scratch{}
	for round := 0; round < 2; round++ { // the second round reuses the grown buffers
		tb := NewWith(sc)
		addr := uint64(1)
		want := map[uint8][]uint64{}
		for _, lvl := range []uint8{5, 2, 9, 3} {
			for i := 0; i < 3+int(lvl); i++ {
				seen := time.Duration(0)
				if lvl == 3 || i%4 == 3 {
					seen = 10 * time.Second // survives
				} else {
					want[lvl] = append(want[lvl], addr)
				}
				tb.BusLevel(lvl).Upsert(ref(idspace.ID(uint64(lvl)*1000+addr), addr), 0, seen, 1, Direct)
				addr++
			}
		}
		tb.Level0.Upsert(ref(7, 900), 0, 0, 1, Direct)
		tb.Superiors.Upsert(ref(8, 901), 0, 0, 1, Direct)
		res := tb.Sweep(12*time.Second, 5*time.Second)
		if len(res.Level0) != 1 || res.Level0[0].Addr != 900 || len(res.Superiors) != 1 || res.Superiors[0].Addr != 901 ||
			len(res.Children) != 0 || len(res.NbrChildren) != 0 {
			t.Fatalf("round %d: non-bus spans wrong: %+v", round, res)
		}
		var levels []uint8
		for _, b := range res.Bus {
			levels = append(levels, b.Level)
			var got []uint64
			for _, r := range b.Refs {
				got = append(got, r.Addr)
			}
			if fmt.Sprint(got) != fmt.Sprint(want[b.Level]) {
				t.Fatalf("round %d: level %d lost %v, want %v", round, b.Level, got, want[b.Level])
			}
		}
		if fmt.Sprint(levels) != "[2 5 9]" {
			t.Fatalf("round %d: levels %v, want [2 5 9]", round, levels)
		}
	}
}

func TestTableSweep(t *testing.T) {
	tb := New()
	tb.Level0.Upsert(ref(10, 1), 0, 0, 1, Direct)
	tb.Level0.Upsert(ref(20, 2), 0, 10*time.Second, 1, Direct)
	tb.BusLevel(1).Upsert(ref(30, 3), 0, 0, 1, Direct)
	tb.Children.Upsert(ref(40, 4), 0, 0, 1, Direct)
	tb.SetParent(ref(50, 5), 0)
	res := tb.Sweep(12*time.Second, 5*time.Second)
	if res.Empty() {
		t.Fatal("sweep should remove")
	}
	if len(res.Level0) != 1 || res.Level0[0].ID != 10 {
		t.Fatalf("level0 sweep %v", res.Level0)
	}
	if len(res.Bus) != 1 || res.Bus[0].Level != 1 || len(res.Bus[0].Refs) != 1 || res.Bus[0].Refs[0].ID != 30 {
		t.Fatalf("bus sweep %v", res.Bus)
	}
	if len(res.Children) != 1 {
		t.Fatalf("children sweep %v", res.Children)
	}
	if !res.ParentLost || res.Parent.ID != 50 {
		t.Fatalf("parent sweep %+v", res)
	}
	// Emptied bus level is dropped.
	if tb.BusAt(1) != nil {
		t.Fatal("empty bus level should be pruned")
	}
	// A fresh table sweeps empty.
	if !New().Sweep(time.Hour, time.Second).Empty() {
		t.Fatal("empty table sweep must be empty")
	}
}

func TestFindID(t *testing.T) {
	tb := New()
	tb.Level0.Upsert(ref(10, 1), 0, 0, 1, Direct)
	tb.BusLevel(1).Upsert(ref(20, 2), 0, 0, 1, Direct)
	tb.Children.Upsert(ref(30, 3), 0, 0, 1, Direct)
	tb.NbrChildren.Upsert(ref(40, 4), 0, 0, 1, Direct)
	tb.Superiors.Upsert(ref(50, 5), 0, 0, 1, Direct)
	tb.SetParent(ref(60, 6), 0)
	for _, id := range []idspace.ID{10, 20, 30, 40, 50, 60} {
		if _, ok := tb.FindID(id); !ok {
			t.Fatalf("FindID(%d) miss", id)
		}
	}
	if _, ok := tb.FindID(99); ok {
		t.Fatal("FindID false positive")
	}
}

func TestCandidatesDedup(t *testing.T) {
	tb := New()
	// Same peer known at level 0 and on bus level 2 with a higher
	// MaxLevel: candidates must keep one copy, preferring the bus ref.
	low := ref(10, 1)
	high := ref(10, 1)
	high.MaxLevel = 2
	tb.Level0.Upsert(low, 0, 0, 1, Direct)
	tb.BusLevel(2).Upsert(high, 0, 0, 1, Direct)
	tb.Children.Upsert(ref(30, 3), 0, 0, 1, Direct)
	tb.SetParent(ref(60, 6), 0)
	cands := tb.Candidates(nil)
	if len(cands) != 3 {
		t.Fatalf("candidates %v", cands)
	}
	for _, c := range cands {
		if c.Addr == 1 && c.MaxLevel != 2 {
			t.Fatal("dedup must keep highest MaxLevel ref")
		}
	}
}

func TestTableSizeAndVersion(t *testing.T) {
	tb := New()
	if tb.Size() != 0 {
		t.Fatal("empty size")
	}
	v1 := tb.NextVersion()
	v2 := tb.NextVersion()
	if v2 <= v1 {
		t.Fatal("version must be monotone")
	}
	tb.Level0.Upsert(ref(10, 1), 0, 0, tb.NextVersion(), Direct)
	tb.SetParent(ref(60, 6), 0)
	if tb.Size() != 2 {
		t.Fatalf("size %d", tb.Size())
	}
}

func TestTableDelta(t *testing.T) {
	tb := New()
	tb.Level0.Upsert(ref(10, 1), proto.FNeighbor, 0, tb.NextVersion(), Direct) // v1
	mark := tb.Version()
	tb.BusLevel(2).Upsert(ref(20, 2), proto.FNeighbor, 0, tb.NextVersion(), Direct) // v2
	tb.SetParent(ref(60, 6), 0)                                                     // v3
	delta := tb.AppendDelta(nil, mark, 0)
	if len(delta) != 2 {
		t.Fatalf("delta %v", delta)
	}
	seenParent, seenBus := false, false
	for _, e := range delta {
		if e.Flags&proto.FParent != 0 && e.Ref.ID == 60 {
			seenParent = true
		}
		if e.Level == 2 && e.Ref.ID == 20 {
			seenBus = true
		}
	}
	if !seenParent || !seenBus {
		t.Fatalf("delta contents %+v", delta)
	}
	if len(tb.AppendDelta(nil, tb.Version(), 0)) != 0 {
		t.Fatal("delta since current version must be empty")
	}
}

func TestTableString(t *testing.T) {
	tb := New()
	tb.Level0.Upsert(ref(10, 1), 0, 0, 1, Direct)
	tb.SetParent(ref(60, 6), 0)
	if s := tb.String(); s == "" {
		t.Fatal("string empty")
	}
}

// walkTable holds one entry in each structure, two bus levels and a parent;
// every entry but one has the address of its place in the walk order —
// Level0 1, bus level 2 then 4, Children, NbrChildren, Superiors, parent 7 —
// and the duplicate ID 500 in every set, so that whatever a walk reports
// first shows where it started. Version v+1 stamps the entry of address v.
func walkTable() *Table {
	tb := New()
	put := func(s *Set, addr uint64) {
		s.Upsert(proto.NodeRef{ID: 500, Addr: addr, MaxLevel: uint8(addr)}, 0, 0, uint32(addr)+1, Direct)
	}
	put(&tb.Superiors, 6) // filled back to front: the order is the table's, not the caller's
	put(&tb.NbrChildren, 5)
	put(&tb.Children, 4)
	put(tb.BusLevel(4), 3)
	put(tb.BusLevel(2), 2)
	put(&tb.Level0, 1)
	tb.BusLevel(3) // a level the node holds no view of any more
	tb.DropLevel(3)
	tb.SetParent(proto.NodeRef{ID: 500, Addr: 7}, 0)
	return tb
}

// TestTableWalkOrder: every walk over the table observes the one order of
// Table.setAt, the parent slot after it.
func TestTableWalkOrder(t *testing.T) {
	addrs := func(refs []proto.NodeRef) string {
		var out []uint64
		for _, r := range refs {
			out = append(out, r.Addr)
		}
		return fmt.Sprint(out)
	}
	tb := walkTable()
	if got := addrs(tb.Candidates(nil)); got != "[1 2 3 4 5 6 7]" {
		t.Errorf("Candidates walked %s", got)
	}
	var delta []proto.NodeRef
	for _, e := range tb.AppendDelta(nil, 0, 0) {
		delta = append(delta, e.Ref)
		if want := map[uint64]uint8{2: 2, 3: 4}[e.Ref.Addr]; e.Level != want && e.Ref.Addr != 7 {
			t.Errorf("delta entry of address %d carries level %d, want %d", e.Ref.Addr, e.Level, want)
		}
	}
	if got := addrs(delta); got != "[1 2 3 4 5 6 7]" {
		t.Errorf("AppendDelta walked %s", got)
	}
	// FindID reports the first set that holds the ID; removing that entry
	// moves the answer one place along the walk, down to the parent slot.
	for want := uint64(1); want <= 7; want++ {
		r, ok := tb.FindID(500)
		if !ok || r.Addr != want {
			t.Fatalf("FindID found address %d (%v), want %d", r.Addr, ok, want)
		}
		tb.RemoveEverywhere(want)
	}
	if _, ok := tb.FindID(500); ok || tb.Size() != 0 {
		t.Fatalf("table not empty after removing every address: size %d", tb.Size())
	}
	// Sweep cuts its result from one backing array, filled in walk order.
	tb = walkTable()
	res := tb.Sweep(time.Hour, time.Second)
	if !res.ParentLost || res.Parent.Addr != 7 || len(res.Bus) != 2 || res.Bus[0].Level != 2 || res.Bus[1].Level != 4 {
		t.Fatalf("sweep result %+v", res)
	}
	all := res.Level0[:1:1]
	for _, part := range [][]proto.NodeRef{res.Bus[0].Refs, res.Bus[1].Refs, res.Children, res.NbrChildren, res.Superiors} {
		if len(part) != 1 || (cap(part) != 1 && &part[0] != &res.Superiors[0]) {
			t.Fatalf("sweep span %v (cap %d), want one ref with no room before the next span", part, cap(part))
		}
		all = append(all, part...)
	}
	if got := addrs(all); got != "[1 2 3 4 5 6]" || &res.Level0[0] != &tb.sc.refs[0] || &res.Superiors[0] != &tb.sc.refs[5] {
		t.Errorf("Sweep walked %s, or cut its spans from somewhere else than the scratch", got)
	}
	if s := tb.String(); s != "rtable{l0:0 ch:0 nch:0 sup:0}" {
		t.Errorf("String of the swept table: %s", s)
	}
	if s := walkTable().String(); s != "rtable{l0:1 l2:1 l4:1 ch:1 nch:1 sup:1 parent:00000000000001f4}" {
		t.Errorf("String: %s", s)
	}
}

// TestTableWalksDoNotAllocate: the walks run per datagram and per routing
// decision; the enumeration they share must cost them no allocation.
func TestTableWalksDoNotAllocate(t *testing.T) {
	tb := walkTable()
	refs, entries := make([]proto.NodeRef, 0, 16), make([]proto.Entry, 0, 16)
	for name, walk := range map[string]func(){
		"Touch":            func() { tb.Touch(3, time.Second) },
		"Candidates":       func() { refs = tb.Candidates(refs[:0]) },
		"AppendDelta":      func() { entries = tb.AppendDelta(entries[:0], 0, time.Second) },
		"RemoveEverywhere": func() { tb.RemoveEverywhere(99) },
		"NearestInRange":   func() { tb.NearestInRange(0, idspace.MaxID, 800, 3) },
		"LastDirect":       func() { tb.LastDirect(3) },
		"FindID":           func() { tb.FindID(501) },
	} {
		if allocs := testing.AllocsPerRun(100, walk); allocs != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, allocs)
		}
	}
}
