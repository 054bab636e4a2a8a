package rtable

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
)

// refSet is the pre-slab, map-based Set implementation, kept verbatim as
// the behavioural oracle: the slab rewrite must be observation-equivalent
// under every operation sequence. Its lag is its own sorted view, rebuilt
// by the next refs-reading query after a membership or ID change; the set's
// shown fields must lag exactly as that view does, so the view is the
// reference for Refs() and every positional query.
type refSet struct {
	byAddr map[uint64]*Entry
	sorted []proto.NodeRef
	dirty  bool
}

func newRefSet() *refSet { return &refSet{byAddr: map[uint64]*Entry{}} }

func (s *refSet) Len() int               { return len(s.byAddr) }
func (s *refSet) Get(addr uint64) *Entry { return s.byAddr[addr] }

func (s *refSet) Upsert(ref proto.NodeRef, flags proto.EntryFlag, validated time.Duration, version uint32, mode UpsertMode) *Entry {
	e, ok := s.byAddr[ref.Addr]
	if !ok {
		e = &Entry{Flags: flags, LastSeen: validated, Version: version, LastDirect: neverDirect}
		e.setRef(ref)
		if mode == Direct {
			e.LastDirect = validated
		}
		s.byAddr[ref.Addr] = e
		s.dirty = true
		return e
	}
	applyContent := e.Ref() != ref
	if mode == Hearsay && ref.MaxLevel < e.MaxLevel {
		applyContent = false
	}
	if applyContent {
		if e.ID != ref.ID {
			s.dirty = true
		}
		e.setRef(ref)
		e.Version = version
	}
	if e.Flags|flags != e.Flags {
		e.Flags |= flags
		e.Version = version
	}
	switch mode {
	case Direct:
		if validated > e.LastSeen {
			e.LastSeen = validated
		}
		if validated > e.LastDirect {
			e.LastDirect = validated
		}
	case Vouched:
		if validated > e.LastSeen {
			e.LastSeen = validated
		}
	}
	return e
}

func (s *refSet) Touch(addr uint64, now time.Duration) bool {
	if e, ok := s.byAddr[addr]; ok {
		e.LastSeen = now
		e.LastDirect = now
		return true
	}
	return false
}

func (s *refSet) Remove(addr uint64) bool {
	if _, ok := s.byAddr[addr]; !ok {
		return false
	}
	delete(s.byAddr, addr)
	s.dirty = true
	return true
}

func (s *refSet) Sweep(now, ttl time.Duration) []proto.NodeRef {
	var removed []proto.NodeRef
	for addr, e := range s.byAddr {
		if now-e.LastSeen > ttl {
			removed = append(removed, e.Ref())
			delete(s.byAddr, addr)
		}
	}
	if removed != nil {
		s.dirty = true
		sort.Slice(removed, func(i, j int) bool {
			return refLess(removed[i], removed[j])
		})
	}
	return removed
}

func (s *refSet) Refs() []proto.NodeRef {
	if s.dirty || s.sorted == nil {
		s.sorted = s.sorted[:0]
		for _, e := range s.byAddr {
			s.sorted = append(s.sorted, e.Ref())
		}
		sort.Slice(s.sorted, func(i, j int) bool {
			return refLess(s.sorted[i], s.sorted[j])
		})
		s.dirty = false
	}
	return s.sorted
}

func (s *refSet) ChangedSince(since uint32, level uint8, now time.Duration, out []proto.Entry) []proto.Entry {
	for _, r := range s.Refs() {
		e := s.byAddr[r.Addr]
		if e != nil && e.Version > since {
			out = append(out, proto.Entry{
				Ref: e.Ref(), Level: level, Flags: e.Flags, Version: e.Version,
				AgeDs: proto.AgeFrom(now, e.LastSeen),
			})
		}
	}
	return out
}

func (s *refSet) FreshRefs(now, ttl time.Duration) []proto.NodeRef {
	var out []proto.NodeRef
	for _, r := range s.Refs() {
		if e := s.byAddr[r.Addr]; e != nil && e.DirectFresh(now, ttl) {
			out = append(out, r)
		}
	}
	return out
}

func (s *refSet) Neighbors(x idspace.ID) (left, right proto.NodeRef) {
	refs := s.Refs()
	i := sort.Search(len(refs), func(i int) bool { return refs[i].ID >= x })
	if i > 0 {
		left = refs[i-1]
	}
	for i < len(refs) && refs[i].ID == x {
		i++
	}
	if i < len(refs) {
		right = refs[i]
	}
	return left, right
}

func (s *refSet) NeighborsFresh(x idspace.ID, now, ttl time.Duration) (left, right proto.NodeRef) {
	refs := s.Refs()
	i := sort.Search(len(refs), func(i int) bool { return refs[i].ID >= x })
	for l := i - 1; l >= 0; l-- {
		if e := s.byAddr[refs[l].Addr]; e != nil && e.DirectFresh(now, ttl) {
			left = refs[l]
			break
		}
	}
	for r := i; r < len(refs); r++ {
		if refs[r].ID == x {
			continue
		}
		if e := s.byAddr[refs[r].Addr]; e != nil && e.DirectFresh(now, ttl) {
			right = refs[r]
			break
		}
	}
	return left, right
}

func (s *refSet) NeighborsFreshK(x idspace.ID, now, ttl time.Duration, k int, leftSide bool) []proto.NodeRef {
	var out []proto.NodeRef
	refs := s.Refs()
	i := sort.Search(len(refs), func(i int) bool { return refs[i].ID >= x })
	found := 0
	if leftSide {
		for l := i - 1; l >= 0 && found < k; l-- {
			if e := s.byAddr[refs[l].Addr]; e != nil && e.DirectFresh(now, ttl) {
				out = append(out, refs[l])
				found++
			}
		}
		return out
	}
	for r := i; r < len(refs) && found < k; r++ {
		if refs[r].ID == x {
			continue
		}
		if e := s.byAddr[refs[r].Addr]; e != nil && e.DirectFresh(now, ttl) {
			out = append(out, refs[r])
			found++
		}
	}
	return out
}

func (s *refSet) SideRank(x, id idspace.ID) int {
	refs := s.Refs()
	i := sort.Search(len(refs), func(i int) bool { return refs[i].ID >= x })
	rank := 0
	if id < x {
		for l := i - 1; l >= 0; l-- {
			if refs[l].ID <= id {
				break
			}
			rank++
		}
		return rank
	}
	for r := i; r < len(refs); r++ {
		if refs[r].ID == x {
			continue
		}
		if refs[r].ID >= id {
			break
		}
		rank++
	}
	return rank
}

func (s *refSet) Nearest(x idspace.ID) (proto.NodeRef, bool) {
	refs := s.Refs()
	if len(refs) == 0 {
		return proto.NodeRef{}, false
	}
	best := refs[0]
	bestD := idspace.Dist(best.ID, x)
	for _, r := range refs[1:] {
		if d := idspace.Dist(r.ID, x); d < bestD {
			best, bestD = r, d
		}
	}
	return best, true
}

func (s *refSet) HasID(x idspace.ID) (proto.NodeRef, bool) {
	refs := s.Refs()
	i := sort.Search(len(refs), func(i int) bool { return refs[i].ID >= x })
	if i < len(refs) && refs[i].ID == x {
		return refs[i], true
	}
	return proto.NodeRef{}, false
}

// Address pools of the oracle, chosen per sequence. Each maps a small
// index to an address, so re-inserts, same-ID entries and slot reuse after
// expiry happen constantly whatever the addresses look like.
const (
	poolSmall  = iota // 1..24, the simulator's sequential addresses
	poolLow32         // 24 addresses equal in their low 32 bits (packed IP:port differing in the upper IP bytes)
	poolTag           // 24 addresses that differ in all 64 bits (multiples of a large odd constant)
	poolWide          // 1..96: crosses every growth step up to 97 slots, then frees and reuses
	poolTail          // 1..200: the linear scan's tail (0.1 % of a settled overlay's sets exceed 24 entries)
	poolShapes        // number of pools
)

// fibInverse is the inverse of the Fibonacci-hash multiplier modulo 2^64
// (Newton's iteration doubles the correct bits each round).
var fibInverse = func() uint64 {
	const a = 0x9E3779B97F4A7C15
	x := uint64(a) // correct to 3 bits for any odd a
	for i := 0; i < 6; i++ {
		x *= 2 - a*x
	}
	return x
}()

// poolAddr maps index i to its 1-based slot in the pool and the slot's
// address.
func poolAddr(pool uint8, i uint64) (slot, addr uint64) {
	slot = 1 + i%24
	switch pool % poolShapes {
	case poolLow32:
		return slot, slot<<32 | 0x0A00_1B58
	case poolTag:
		return slot, fibInverse * (0xBEEF<<32 | slot)
	case poolWide:
		slot = 1 + i%96
	case poolTail:
		slot = 1 + i%200
	}
	return slot, slot
}

// lagBatch, set in a sequence's pool byte, batches its queries: only the
// query op (5) compares the sets, so mutations pile up unshown between
// queries — a content update while the set is dirty, or a lagging address
// removed and re-inserted before any query. Without it every op is
// followed by a query, which leaves the set clean.
const lagBatch = 0x80

// equivSets is how many sets one sequence drives, each against an oracle
// of its own; an op's code byte divided by 6 picks its set. The sets take
// their slabs from the process's pools and give them back as they grow, so
// a slab handed to one set while another still uses it shows as a
// divergence in the other.
const equivSets = 3

// equivOps drives one operation sequence against both implementations and
// fails at the first observable divergence.
func equivOps(t *testing.T, ops []byte, pool uint8) {
	t.Helper()
	batch := pool&lagBatch != 0
	pool &^= lagBatch
	var slabs [equivSets]*Set
	var refs [equivSets]*refSet
	for k := range slabs {
		slabs[k], refs[k] = NewSet(), newRefSet()
	}
	now := time.Duration(0)
	const ttl = 100 * time.Millisecond

	u64 := func(i int) uint64 {
		if i+1 < len(ops) {
			return uint64(ops[i])<<8 | uint64(ops[i+1])
		}
		return uint64(ops[i%len(ops)])
	}
	var version uint32

	for i := 0; i+4 < len(ops); i += 5 {
		op := ops[i] % 6
		slab, ref := slabs[ops[i]/6%equivSets], refs[ops[i]/6%equivSets]
		slot, addr := poolAddr(pool, u64(i+1))
		// IDs derive from the pool slot so that re-upserting a live peer
		// is usually a content-only update (level/score change, same ID) —
		// the case the queries show late, at the next membership change —
		// with occasional genuine ID moves mixed in.
		id := idspace.ID(slot * 0x0A0000000000000)
		if ops[i+2]%16 == 0 {
			id += idspace.ID(ops[i+2]) * 0x04000000000000
		}
		now += time.Duration(ops[i+3]%50) * time.Millisecond
		switch op {
		case 0, 1: // Upsert dominates real traffic.
			version++
			mode := UpsertMode(ops[i+4] % 3)
			r := proto.NodeRef{ID: id, Addr: addr, MaxLevel: ops[i+4] % 4, Score: uint16(ops[i+4])}
			flags := proto.EntryFlag(1 << (ops[i+4] % 5))
			validated := now - time.Duration(ops[i+4]%120)*time.Millisecond
			a := slab.Upsert(r, flags, validated, version, mode)
			b := ref.Upsert(r, flags, validated, version, mode)
			if !sameEntry(a, b) {
				t.Fatalf("op %d: Upsert result diverged: slab=%+v ref=%+v", i, *a, *b)
			}
		case 2:
			if got, want := slab.Touch(addr, now), ref.Touch(addr, now); got != want {
				t.Fatalf("op %d: Touch(%d) slab=%v ref=%v", i, addr, got, want)
			}
		case 3:
			if got, want := slab.Remove(addr), ref.Remove(addr); got != want {
				t.Fatalf("op %d: Remove(%d) slab=%v ref=%v", i, addr, got, want)
			}
		case 4:
			a := slab.sweepInto(nil, now, ttl)
			b := ref.Sweep(now, ttl)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("op %d: Sweep diverged:\nslab %v\nref  %v", i, a, b)
			}
		case 5: // pure queries, checked below
		}
		// Compare only ONE query family per op, selected by the input.
		// A query after a membership change shows it (the oracle rebuilds
		// its view, the set copies its shown fields), and content-only
		// updates stay invisible until then — load-bearing protocol
		// semantics; comparing everything every op would show both sets
		// fresh and mask divergences in exactly that laziness. The
		// selector lets staleness windows build up differently per
		// sequence.
		if !batch || op == 5 {
			checkEquiv(t, i, slab, ref, now, ttl, id, int(ops[i+4]%8))
		}
	}
	// Final full sweep over every view of every set.
	for k := range slabs {
		for sel := 0; sel < 8; sel++ {
			checkEquiv(t, -1, slabs[k], refs[k], now, ttl, idspace.ID(0x4000000000000000), sel)
		}
		checkOrder(t, slabs[k])
	}
}

// sameEntry compares two live entries. The set keeps its lag in its lag
// list and the oracle in its view, which the queries compare.
func sameEntry(a, b *Entry) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// checkOrder fails unless the slab is in strict (ID, Addr) order.
func checkOrder(t *testing.T, s *Set) {
	t.Helper()
	sl := s.slab()
	for i := 1; i < len(sl); i++ {
		if !refLess(sl[i-1].Ref(), sl[i].Ref()) {
			t.Fatalf("entries %d and %d out of order: %v, %v", i-1, i, sl[i-1].Ref(), sl[i].Ref())
		}
	}
}

// checkEquiv compares one observable view (selected by sel) of the two
// sets.
func checkEquiv(t *testing.T, op int, slab *Set, ref *refSet, now, ttl time.Duration, x idspace.ID, sel int) {
	t.Helper()
	if slab.Len() != ref.Len() {
		t.Fatalf("op %d: Len slab=%d ref=%d", op, slab.Len(), ref.Len())
	}
	switch sel {
	case 0:
		a, b := slab.Refs(), ref.Refs()
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("op %d: Refs diverged:\nslab %v\nref  %v", op, a, b)
		}
		for _, r := range b {
			ea, eb := slab.Get(r.Addr), ref.Get(r.Addr)
			if !sameEntry(ea, eb) {
				t.Fatalf("op %d: Get(%d) diverged: slab=%+v ref=%+v", op, r.Addr, ea, eb)
			}
		}
	case 1:
		da := slab.ChangedSince(0, 1, now, nil)
		db := ref.ChangedSince(0, 1, now, nil)
		if fmt.Sprint(da) != fmt.Sprint(db) {
			t.Fatalf("op %d: ChangedSince diverged:\nslab %v\nref  %v", op, da, db)
		}
	case 2:
		fa, fb := slab.AppendFreshRefs(nil, now, ttl), ref.FreshRefs(now, ttl)
		if fmt.Sprint(fa) != fmt.Sprint(fb) {
			t.Fatalf("op %d: FreshRefs diverged:\nslab %v\nref  %v", op, fa, fb)
		}
	case 3:
		la, ra := slab.Neighbors(x)
		lb, rb := ref.Neighbors(x)
		if la != lb || ra != rb {
			t.Fatalf("op %d: Neighbors(%v) diverged: slab=(%v,%v) ref=(%v,%v)", op, x, la, ra, lb, rb)
		}
	case 4:
		la, ra := slab.NeighborsFresh(x, now, ttl)
		lb, rb := ref.NeighborsFresh(x, now, ttl)
		if la != lb || ra != rb {
			t.Fatalf("op %d: NeighborsFresh(%v) diverged: slab=(%v,%v) ref=(%v,%v)", op, x, la, ra, lb, rb)
		}
	case 5:
		for _, left := range []bool{true, false} {
			ka := slab.AppendNeighborsFreshK(nil, x, now, ttl, 3, left)
			kb := ref.NeighborsFreshK(x, now, ttl, 3, left)
			if fmt.Sprint(ka) != fmt.Sprint(kb) {
				t.Fatalf("op %d: NeighborsFreshK(%v,left=%v) diverged:\nslab %v\nref  %v", op, x, left, ka, kb)
			}
		}
	case 6:
		if ga, gb := slab.SideRank(x, x+1), ref.SideRank(x, x+1); ga != gb {
			t.Fatalf("op %d: SideRank diverged: slab=%d ref=%d", op, ga, gb)
		}
		na, oka := slab.Nearest(x, nil)
		nb, okb := ref.Nearest(x)
		if oka != okb || na != nb {
			t.Fatalf("op %d: Nearest(%v) diverged: slab=(%v,%v) ref=(%v,%v)", op, x, na, oka, nb, okb)
		}
	case 7:
		ha, oka := slab.hasID(x)
		hb, okb := ref.HasID(x)
		if oka != okb || ha != hb {
			t.Fatalf("op %d: HasID(%v) diverged: slab=(%v,%v) ref=(%v,%v)", op, x, ha, oka, hb, okb)
		}
	}
}

// TestSetEquivalenceRandom drives long random operation sequences through
// the slab-backed Set and the map-based reference.
func TestSetEquivalenceRandom(t *testing.T) {
	seeds := 150
	opsLen := 600
	if testing.Short() {
		seeds = 30
	}
	for seed := 0; seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(int64(seed)))
		ops := make([]byte, opsLen)
		rng.Read(ops)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			for pool := uint8(0); pool < poolShapes; pool++ {
				t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) { equivOps(t, ops, pool) })
			}
		})
	}
}

// growFreeReuseOps is a scripted sequence over the first n slots of a pool
// (96 for poolWide): fill the set past several growth steps, remove most of
// it, refill through the free chain and beyond into the next steps, let
// everything expire in one sweep, and fill again — with a query after every
// operation.
func growFreeReuseOps(n int) []byte {
	var ops []byte
	op := func(code byte, slot int, dt byte, param byte) {
		// The second address byte also steers ID moves (multiples of 16).
		ops = append(ops, code, byte(slot>>8), byte(slot), dt, param)
	}
	for slot := 0; slot < 45*n/96; slot++ {
		op(0, slot, 0, byte(slot))
	}
	for slot := 5; slot < 40*n/96; slot++ {
		op(3, slot, 0, byte(slot))
	}
	for slot := 50 * n / 96; slot < n; slot++ {
		op(1, slot, 0, byte(slot))
	}
	op(4, 0, 49, 0)
	op(4, 0, 49, 1)
	op(4, 0, 49, 2) // 147 ms on: everything has expired
	for slot := n - 1; slot >= 0; slot-- {
		op(0, slot, 0, byte(slot))
	}
	op(5, 0, 0, 0)
	return ops
}

// interleavedGrowOps fills every set of equivOps to n entries side by
// side, one insert into each in turn with a query after every insert, so
// the sets step through the slab sizes together and each takes the sizes
// the others gave back (96 slots of poolWide, 200 of poolTail).
func interleavedGrowOps(n int) []byte {
	var ops []byte
	for slot := 0; slot < n; slot++ {
		for k := byte(0); k < equivSets; k++ {
			ops = append(ops, 6*k, byte(slot>>8), byte(slot), 1, byte(slot))
		}
	}
	return ops
}

// drainRefillOps fills every set of equivOps to n entries side by side,
// lets all but keep of them expire in one sweep of each set, refills them,
// lets everything expire, and fills them again, with a query after every
// step unless batched. A drain to at most half of the slab moves each set
// to a smaller one while the others take the sizes it gave back; n is at
// most 96 on poolWide and 200 on poolTail. Only a slab of at most 63
// slots has a pool, so only a drain from one can hand a slab to another
// goroutine's set.
func drainRefillOps(n, keep int) []byte {
	var ops []byte
	each := func(code byte, slot int, dt, param byte) {
		for k := byte(0); k < equivSets; k++ {
			ops = append(ops, 6*k+code, byte(slot>>8), byte(slot), dt, param)
		}
	}
	fill := func(survivors bool) {
		for slot := 0; slot < n; slot++ {
			if survivors || slot*keep%n >= keep {
				each(0, slot, 0, 120) // Direct, validated now
			}
		}
	}
	age := func() { // 147 ms on: every entry not touched since has expired
		for range 3 {
			each(5, 0, 49, 0)
		}
	}
	fill(true)
	age()
	for slot := 0; slot < n; slot++ {
		if slot*keep%n < keep {
			each(2, slot, 0, 0)
		}
	}
	each(4, 0, 0, 0)
	fill(false)
	age()
	each(4, 0, 0, 0)
	fill(true)
	return ops
}

// TestSetEquivalenceScripted runs the scripted growth sequence over every
// pool, and over 64 and 200 slots of poolTail: sets the address scan was
// not sized for must still answer as the oracle does. The interleaved
// sequence grows the sets side by side through every pooled slab size and
// beyond; the drains move them down again, across the half-full line and
// to empty.
func TestSetEquivalenceScripted(t *testing.T) {
	for pool := uint8(0); pool < poolShapes; pool++ {
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) { equivOps(t, growFreeReuseOps(96), pool) })
	}
	for _, n := range []int{64, 200} {
		t.Run(fmt.Sprintf("tail%d", n), func(t *testing.T) { equivOps(t, growFreeReuseOps(n), poolTail) })
	}
	t.Run("interleaved", func(t *testing.T) { equivOps(t, interleavedGrowOps(200), poolTail) })
	for _, keep := range []int{5, 31, 32} { // of 63 slots
		t.Run(fmt.Sprintf("drain%d", keep), func(t *testing.T) { equivOps(t, drainRefillOps(60, keep), poolWide) })
	}
	t.Run("drain-tail", func(t *testing.T) { equivOps(t, drainRefillOps(200, 100), poolTail) }) // 235 slots to 121
}

// TestSetEquivalenceShared runs interleaved sequences, batched so that
// they are quick, on goroutines side by side, as the shards of one
// simulation and the transports of one process run: their sets take slabs
// from the same pools. A set that gives its old slab back before copying
// out of it, as it grows or as a sweep moves it down, reads a slab another
// goroutine may be filling; the window is too short to show as a
// divergence, but the race detector reports it.
func TestSetEquivalenceShared(t *testing.T) {
	for g := range 4 {
		t.Run(fmt.Sprintf("g%d", g), func(t *testing.T) {
			t.Parallel()
			for range 50 {
				equivOps(t, interleavedGrowOps(96), lagBatch|poolWide)
				equivOps(t, drainRefillOps(40, 5), lagBatch|poolWide)
			}
		})
	}
}

// TestSetGrowthPolicy pins how storage follows contents: the slab steps by
// a quarter (at least two) from empty, removal keeps the capacity for the
// next insert, and slabBytes is exactly capacity × entry size.
func TestSetGrowthPolicy(t *testing.T) {
	s := NewSet()
	if m := s.slabBytes(); m != 0 {
		t.Fatalf("an empty set holds %d B", m)
	}
	var caps []int
	for i := 1; i <= 60; i++ {
		s.Upsert(proto.NodeRef{ID: idspace.ID(i) << 40, Addr: uint64(i)}, 0, 0, 1, Direct)
		if len(caps) == 0 || caps[len(caps)-1] != int(s.c) {
			caps = append(caps, int(s.c))
		}
	}
	if got, want := fmt.Sprint(caps), "[2 4 6 8 10 12 15 18 22 27 33 41 51 63]"; got != want {
		t.Fatalf("growth steps %s, want %s", got, want)
	}
	if m := s.slabBytes(); m != 63*40 {
		t.Fatalf("slabBytes %d does not match 63 slots", m)
	}
	for i := 1; i <= 40; i++ {
		s.Remove(uint64(i))
	}
	for i := 101; i <= 140; i++ {
		s.Upsert(proto.NodeRef{ID: idspace.ID(i) << 40, Addr: uint64(i)}, 0, 0, 1, Direct)
	}
	if s.Len() != 60 || int(s.c) != 63 {
		t.Fatalf("40 removals and 40 inserts left slab len %d cap %d, want 60/63", s.Len(), int(s.c))
	}
}

// TestSetShrinksWhenSwept pins how storage follows a drain: a sweep that
// leaves the set at most half full moves it to the least slab on the
// growth sequence that holds it, with its entries, their order and the
// refs the queries show unchanged; one that leaves it fuller keeps the
// slab, and one that empties it leaves no slab.
func TestSetShrinksWhenSwept(t *testing.T) {
	const ttl = time.Second
	for _, tc := range []struct{ expire, wantCap int }{
		{19, 41}, {20, 22}, {21, 22}, {29, 12}, {35, 6}, {39, 2}, {40, 0},
	} {
		s := NewSet()
		for i := 1; i <= 40; i++ {
			r := proto.NodeRef{ID: idspace.ID(i*7%41) << 40, Addr: uint64(i), MaxLevel: uint8(i % 3), Score: uint16(i)}
			s.Upsert(r, proto.EntryFlag(i%4), 0, uint32(i), Direct)
		}
		now := 10 * time.Second
		var kept []Entry
		var want []proto.NodeRef
		for i := range s.Len() {
			r, e := s.At(i)
			if r.Addr > uint64(tc.expire) {
				s.Touch(r.Addr, now)
				kept, want = append(kept, *e), append(want, r)
			}
		}
		if gone := s.sweepInto(nil, now, ttl); len(gone) != tc.expire || int(s.c) != tc.wantCap {
			t.Fatalf("expiring %d of 40: swept %d, capacity %d, want %d", tc.expire, len(gone), s.c, tc.wantCap)
		}
		if got := s.slab(); fmt.Sprint(got) != fmt.Sprint(kept) {
			t.Fatalf("expiring %d of 40 left\n%v\nwant\n%v", tc.expire, got, kept)
		}
		if got := s.Refs(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("expiring %d of 40: the queries show\n%v\nwant\n%v", tc.expire, got, want)
		}
		if m := s.slabBytes(); m != tc.wantCap*40 || (tc.wantCap == 0) != (s.base == nil) {
			t.Fatalf("expiring %d of 40: slabBytes %d for %d slots, slab %p", tc.expire, m, tc.wantCap, s.base)
		}
	}
}

// TestSetGrowthReusesSlabs pins that growth takes its slabs from the
// pools: with the collector off and the pools warmed by a first fill,
// filling an empty set to 16 entries, through eight slab sizes, allocates
// nothing.
func TestSetGrowthReusesSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := NewSet()
	allocs := testing.AllocsPerRun(20, func() {
		for i := 1; i <= 16; i++ {
			s.Upsert(proto.NodeRef{ID: idspace.ID(i) << 40, Addr: uint64(i)}, 0, 0, 1, Direct)
		}
		s.release()
	})
	if allocs != 0 {
		t.Fatalf("filling a set to 16 entries allocated %.1f slabs, want 0", allocs)
	}
}

// lagOps is a poolSmall sequence that makes the queries' lag observable:
// members A and B, then a Direct upsert that raises A's level and lowers
// its score, the query sel (an index of checkEquiv) at x, an unrelated
// insert, and the same query again. Before the insert the query must still
// show A's old level and score; after it, the new ones.
func lagOps(sel byte, x uint16) []byte {
	var ops []byte
	op := func(code byte, addr uint16, param byte) {
		ops = append(ops, code, byte(addr>>8), byte(addr), 10, param)
	}
	op(0, 1, 240) // A: Direct, level 0, score 240; Refs shows it
	op(0, 2, 240) // B
	op(1, 1, 3)   // A again: Direct, level 3, score 3
	op(5, x, sel)
	op(0, 10, 240) // an unrelated member
	op(5, x, sel)
	return ops
}

// lagRecOps is a batched poolSmall sequence around one edge case of the
// lag records. A, B, C and D are slots 1 to 4 (address bytes 0 to 3); byte
// 48 is slot 1 under another ID. A prologue inserts A at level 0, B at
// level 3 and C at level 2, each with a score of its own, so a record
// shown for the wrong entry is seen; shows them; and makes A and C lag
// with content-only Direct updates to level 3, score 3. Then come the
// case's steps, unshown; a query of Refs and Get for every member; an
// insert of D; and the query again. Each step is {code, address byte, dt
// in ms, param} as equivOps reads them.
func lagRecOps(steps ...[4]byte) []byte {
	var ops []byte
	op := func(st [4]byte) { ops = append(ops, st[0], 0, st[1], st[2], st[3]) }
	for _, st := range [][4]byte{{0, 0, 10, 240}, {0, 1, 10, 243}, {0, 2, 10, 246}, {5, 0, 10, 0}, {1, 0, 10, 3}, {1, 2, 10, 3}} {
		op(st)
	}
	for _, st := range steps {
		op(st)
	}
	for _, st := range [][4]byte{{5, 0, 10, 0}, {0, 3, 10, 252}, {5, 0, 10, 0}} {
		op(st)
	}
	return ops
}

// FuzzSetEquivalence lets the fuzzer search for diverging sequences.
func FuzzSetEquivalence(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, uint8(poolSmall))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 4; i++ {
		ops := make([]byte, 100)
		rng.Read(ops)
		f.Add(ops, uint8(i))
	}
	f.Add(growFreeReuseOps(64), uint8(poolTail))
	f.Add(growFreeReuseOps(200), uint8(poolTail))
	// Sets that grow side by side share the slab pools.
	f.Add(interleavedGrowOps(40), uint8(poolSmall))
	f.Add(interleavedGrowOps(96), uint8(poolWide))
	// Drains across the half-full line (20 of 41 slots kept moves the set
	// to 22, 21 keeps it at 41) and to empty, then refills.
	f.Add(drainRefillOps(40, 20), uint8(poolWide))
	f.Add(drainRefillOps(40, 21), uint8(poolWide))
	f.Add(drainRefillOps(60, 3), uint8(lagBatch|poolWide))
	f.Add(lagOps(3, 2), uint8(poolSmall)) // Neighbors of B: A on its left
	f.Add(lagOps(6, 1), uint8(poolSmall)) // Nearest to A
	f.Add(lagOps(7, 1), uint8(poolSmall)) // HasID of A
	// The lag records' edge cases. Each catches at least one of three
	// mutants of Set: stash overwriting an existing record ("twice"), a
	// membership change keeping the records past the next show (all six,
	// and the lagOps seeds above) and a removal leaving the set clean
	// ("swept" in sweepInto, "removed" and "dirty" in remove). No seed
	// above catches the first or the last.
	batched := uint8(lagBatch | poolSmall)
	// swept: C and B touched, then A expires in a sweep.
	f.Add(lagRecOps([4]byte{2, 2, 49, 0}, [4]byte{2, 1, 0, 0}, [4]byte{4, 0, 49, 0}), batched)
	// removed: A removed.
	f.Add(lagRecOps([4]byte{3, 0, 10, 0}), batched)
	// moved: A under a new ID, past B, at level 2.
	f.Add(lagRecOps([4]byte{0, 48, 10, 6}), batched)
	// twice: A updated again, to level 2; it still shows level 0.
	f.Add(lagRecOps([4]byte{0, 0, 10, 6}), batched)
	// dirty: B removed, then A updated to level 2 before any query.
	f.Add(lagRecOps([4]byte{3, 1, 10, 0}, [4]byte{0, 0, 10, 6}), batched)
	// reinserted: A removed and back at level 2 while its record stands.
	f.Add(lagRecOps([4]byte{3, 0, 10, 0}, [4]byte{0, 0, 10, 6}), batched)
	f.Fuzz(func(t *testing.T, ops []byte, pool uint8) {
		if len(ops) < 5 {
			return
		}
		equivOps(t, ops, pool)
	})
}

// TestSetSteadyStateAllocs pins the refresh-heavy hot paths at zero
// allocations: keep-alive traffic touches, re-upserts and delta
// composition over an existing population must not allocate.
func TestSetSteadyStateAllocs(t *testing.T) {
	s := NewSet()
	now := time.Duration(0)
	refs := make([]proto.NodeRef, 12)
	for i := range refs {
		refs[i] = proto.NodeRef{ID: idspace.ID(i) << 40, Addr: uint64(i + 1), MaxLevel: uint8(i % 3)}
		s.Upsert(refs[i], proto.FNeighbor, now, uint32(i+1), Direct)
	}
	scratch := make([]proto.Entry, 0, 32)
	allocs := testing.AllocsPerRun(200, func() {
		now += time.Millisecond
		for _, r := range refs {
			s.Upsert(r, proto.FNeighbor, now, 99, Direct)
			s.Touch(r.Addr, now)
		}
		scratch = s.ChangedSince(0, 0, now, scratch[:0])
		for i := range s.Len() {
			if r, e := s.At(i); r.Addr != e.Addr {
				t.Fatalf("At(%d) paired ref %v with entry %v", i, r, e.Ref())
			}
		}
		s.NeighborsFresh(refs[3].ID, now, time.Hour)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Set operations allocated %.1f times per run, want 0", allocs)
	}
}

// TestSetSlotReuse verifies expired entries give their room back rather
// than growing the slab: a churn loop (insert + expire) must keep slab
// capacity bounded.
func TestSetSlotReuse(t *testing.T) {
	s := NewSet()
	const ttl = 10 * time.Millisecond
	now := time.Duration(0)
	for round := 0; round < 1000; round++ {
		now += time.Minute
		addr := uint64(1 + round%7)
		s.Upsert(proto.NodeRef{ID: idspace.ID(round) << 32, Addr: addr}, proto.FNeighbor, now, uint32(round), Direct)
		now += time.Minute
		s.sweepInto(nil, now, ttl)
	}
	if int(s.c) > 16 {
		t.Fatalf("slab grew to %d entries under churn; removal does not give room back", int(s.c))
	}
}
