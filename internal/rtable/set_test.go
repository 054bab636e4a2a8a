package rtable

import (
	"math/rand"
	"testing"
	"time"
	"unsafe"

	"treep/internal/idspace"
	"treep/internal/proto"
)

func ref(id idspace.ID, addr uint64) proto.NodeRef {
	return proto.NodeRef{ID: id, Addr: addr}
}

func TestSetUpsertAndGet(t *testing.T) {
	s := NewSet()
	e := s.Upsert(ref(10, 1), proto.FNeighbor, 5*time.Second, 1, Direct)
	if e == nil || s.Len() != 1 {
		t.Fatal("upsert failed")
	}
	if got := s.Get(1); got != e {
		t.Fatal("get returned different entry")
	}
	if s.Get(99) != nil {
		t.Fatal("get of unknown addr")
	}
}

func TestUpsertRefreshesWithoutVersionBumpOnNoChange(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(10, 1), proto.FNeighbor, 0, 1, Direct)
	e := s.Upsert(ref(10, 1), proto.FNeighbor, 10*time.Second, 2, Direct)
	if e.Version != 1 {
		t.Fatalf("pure refresh must keep version 1, got %d", e.Version)
	}
	if e.LastSeen != 10*time.Second {
		t.Fatal("refresh must update LastSeen")
	}
}

func TestUpsertBumpsVersionOnChange(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(10, 1), proto.FNeighbor, 0, 1, Direct)
	// Same peer, now seen at a higher level.
	r := ref(10, 1)
	r.MaxLevel = 2
	e := s.Upsert(r, proto.FNeighbor, 1, 5, Direct)
	if e.Version != 5 {
		t.Fatalf("metadata change must restamp: version %d", e.Version)
	}
	// New flag also restamps.
	e = s.Upsert(r, proto.FSuperior, 2, 7, Direct)
	if e.Version != 7 || e.Flags != proto.FNeighbor|proto.FSuperior {
		t.Fatalf("flag change: version %d flags %b", e.Version, e.Flags)
	}
}

func TestTouch(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(10, 1), 0, 0, 1, Direct)
	if !s.Touch(1, 9*time.Second) {
		t.Fatal("touch known addr")
	}
	if s.Touch(2, 9*time.Second) {
		t.Fatal("touch unknown addr")
	}
	if s.Get(1).LastSeen != 9*time.Second {
		t.Fatal("touch did not update LastSeen")
	}
}

func TestRemove(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(10, 1), 0, 0, 1, Direct)
	if !s.Remove(1) || s.Remove(1) {
		t.Fatal("remove semantics")
	}
	if s.Len() != 0 {
		t.Fatal("len after remove")
	}
}

func TestSweep(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(10, 1), 0, 0, 1, Direct)
	s.Upsert(ref(20, 2), 0, 5*time.Second, 2, Direct)
	s.Upsert(ref(30, 3), 0, 10*time.Second, 3, Direct)
	removed := s.sweepInto(nil, 6*time.Second, 5*time.Second)
	if len(removed) != 1 || removed[0].ID != 10 {
		t.Fatalf("sweep removed %v", removed)
	}
	if s.Len() != 2 {
		t.Fatalf("len after sweep %d", s.Len())
	}
	// Entries at exactly ttl age survive (strict >): ages are 5s and 0s.
	removed = s.sweepInto(nil, 10*time.Second, 5*time.Second)
	if len(removed) != 0 {
		t.Fatalf("boundary sweep removed %v", removed)
	}
}

func TestSweepDeterministicOrder(t *testing.T) {
	s := NewSet()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		s.Upsert(ref(idspace.ID(rng.Uint64()), uint64(i+1)), 0, 0, 1, Direct)
	}
	removed := s.sweepInto(nil, time.Hour, time.Second)
	for i := 1; i < len(removed); i++ {
		if removed[i-1].ID > removed[i].ID {
			t.Fatal("sweep result not ID-sorted")
		}
	}
}

// TestSetFitsItsSizeClass pins the layouts the heap ledger counts: an
// entry is a flattened ref and its timestamps with no lag of its own, a set
// is a slab pointer with 32-bit length and capacity, the lag list pointer
// and the dirty bit, and a table holding four sets and the parent slot by
// value stays in the allocator's 208-byte size class.
func TestSetFitsItsSizeClass(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 40 {
		t.Fatalf("Entry is %d bytes, want 40", n)
	}
	if n := unsafe.Sizeof(Set{}); n > 32 {
		t.Fatalf("Set is %d bytes, want at most 32", n)
	}
	if n := unsafe.Sizeof(Table{}); n > 208 {
		t.Fatalf("Table is %d bytes, want at most 208 (its size class)", n)
	}
}

func TestRefsSortedAndCached(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(30, 3), 0, 0, 1, Direct)
	s.Upsert(ref(10, 1), 0, 0, 1, Direct)
	s.Upsert(ref(20, 2), 0, 0, 1, Direct)
	refs := s.Refs()
	if len(refs) != 3 || refs[0].ID != 10 || refs[1].ID != 20 || refs[2].ID != 30 {
		t.Fatalf("refs %v", refs)
	}
	// Removal shows at the next query.
	s.Remove(2)
	refs = s.Refs()
	if len(refs) != 2 || refs[1].ID != 30 {
		t.Fatalf("refs after remove %v", refs)
	}
}

func TestNearest(t *testing.T) {
	s := NewSet()
	if _, ok := s.Nearest(5, nil); ok {
		t.Fatal("nearest on empty set")
	}
	s.Upsert(ref(10, 1), 0, 0, 1, Direct)
	s.Upsert(ref(100, 2), 0, 0, 1, Direct)
	s.Upsert(ref(1000, 3), 0, 0, 1, Direct)
	if r, _ := s.Nearest(90, nil); r.ID != 100 {
		t.Fatalf("nearest(90) = %v", r.ID)
	}
	if r, _ := s.Nearest(0, nil); r.ID != 10 {
		t.Fatalf("nearest(0) = %v", r.ID)
	}
	if r, _ := s.Nearest(2000, nil); r.ID != 1000 {
		t.Fatalf("nearest(2000) = %v", r.ID)
	}
}

func TestNeighbors(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(10, 1), 0, 0, 1, Direct)
	s.Upsert(ref(20, 2), 0, 0, 1, Direct)
	s.Upsert(ref(30, 3), 0, 0, 1, Direct)
	l, r := s.Neighbors(20)
	if l.ID != 10 || r.ID != 30 {
		t.Fatalf("neighbors(20) = %v %v", l.ID, r.ID)
	}
	l, r = s.Neighbors(5)
	if !l.IsZero() || r.ID != 10 {
		t.Fatalf("neighbors(5) = %v %v", l, r)
	}
	l, r = s.Neighbors(35)
	if l.ID != 30 || !r.IsZero() {
		t.Fatalf("neighbors(35) = %v %v", l, r)
	}
	l, r = s.Neighbors(25)
	if l.ID != 20 || r.ID != 30 {
		t.Fatalf("neighbors(25) = %v %v", l, r)
	}
}

func TestHasID(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(10, 1), 0, 0, 1, Direct)
	if _, ok := s.hasID(10); !ok {
		t.Fatal("hasID miss")
	}
	if _, ok := s.hasID(11); ok {
		t.Fatal("hasID false positive")
	}
}

func TestChangedSince(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(10, 1), proto.FNeighbor, 0, 1, Direct)
	s.Upsert(ref(20, 2), proto.FNeighbor, 0, 5, Direct)
	s.Upsert(ref(30, 3), proto.FNeighbor, 0, 9, Direct)
	out := s.ChangedSince(4, 2, 0, nil)
	if len(out) != 2 {
		t.Fatalf("delta size %d", len(out))
	}
	for _, e := range out {
		if e.Version <= 4 || e.Level != 2 {
			t.Fatalf("bad delta entry %+v", e)
		}
	}
	if got := s.ChangedSince(100, 0, 0, nil); len(got) != 0 {
		t.Fatal("nothing newer than 100")
	}
}

func TestEachOrder(t *testing.T) {
	s := NewSet()
	s.Upsert(ref(30, 3), 0, 0, 1, Direct)
	s.Upsert(ref(10, 1), 0, 0, 1, Direct)
	var ids []idspace.ID
	s.Each(func(e *Entry) { ids = append(ids, e.ID) })
	if len(ids) != 2 || ids[0] != 10 || ids[1] != 30 {
		t.Fatalf("each order %v", ids)
	}
}

// TestZeroAddressIsAnOrdinaryKey: the slab holds live entries only, so no
// address stands for "free". Address 0 misses until it is stored, and
// storing it touches no other entry.
func TestZeroAddressIsAnOrdinaryKey(t *testing.T) {
	s := NewSet()
	for i := uint64(1); i <= 4; i++ {
		s.Upsert(ref(idspace.ID(10*i), i), 0, 0, 1, Direct)
	}
	s.Remove(2)
	s.Remove(3)
	if s.Get(0) != nil || s.Touch(0, time.Second) || s.Remove(0) {
		t.Fatal("address 0 matched an entry of a set that never stored it")
	}
	if e := s.Upsert(proto.NodeRef{ID: 25}, proto.FNeighbor, time.Second, 2, Direct); e == nil || s.Len() != 3 || s.Get(0) != e {
		t.Fatalf("Upsert of the zero ref: entry %+v, Len %d", e, s.Len())
	}
	if s.Get(1).ID != 10 || s.Get(4).ID != 40 || !s.Remove(0) || s.Len() != 2 {
		t.Fatal("storing and removing address 0 disturbed the other entries")
	}
	checkOrder(t, s)
}
