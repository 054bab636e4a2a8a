// Package rtable implements the TreeP routing-table system of §III.c/d.
//
// A node's routing state is six structures, all holding (ID, IP, Port)
// tuples with "a timestamp associated with each node providing the
// information ... reset at every occurrence of an active communication ...
// the entry will be deleted after the expiration of the timestamp":
//
//  1. level-0 routing table (every node has one),
//  2. level-i (i>0) routing table: direct and indirect same-level
//     neighbours,
//  3. children routing table: own children plus children of direct
//     neighbours,
//  4. the level-1 parent (here: the immediate parent of the node's top
//     level),
//  5. the superior node list: ancestors and the immediate parent's
//     neighbours.
//
// Entries carry versions stamped from a per-table monotone counter so a
// node can ship *only out-of-date data* to each neighbour (§III.d): every
// neighbour remembers the table version it last saw, and the delta is
// "entries stamped later than that".
package rtable

import (
	"sort"
	"time"
	"unsafe"

	"treep/internal/idspace"
	"treep/internal/proto"
)

// Entry is one routing-table item: 48 bytes, the small fields last so
// they share one word.
type Entry struct {
	Ref proto.NodeRef
	// LastSeen is the time this knowledge was last refreshed — by direct
	// contact or by a peer re-advertising it. Entries expire TTL after it.
	LastSeen time.Duration
	// LastDirect is the time of the last active communication with the
	// node itself (§III.c: the timestamp "is reset at every occurrence of
	// an active communication with the corresponding node"). Hearsay never
	// advances it; only direct-fresh entries may be re-advertised to
	// others, which is what stops dead nodes from being kept alive by
	// gossip loops.
	LastDirect time.Duration
	// Version is the table-local modification stamp used for delta sync.
	Version uint32
	Flags   proto.EntryFlag
}

// neverDirect marks an entry that has never been heard from directly. Far
// enough in the past that now-LastDirect always exceeds any TTL, without
// risking duration overflow.
const neverDirect = time.Duration(-1) << 40

// DirectFresh reports whether the node itself was heard from within ttl.
func (e *Entry) DirectFresh(now, ttl time.Duration) bool {
	return now-e.LastDirect <= ttl
}

// Set is a collection of entries keyed by transport address, with an
// ID-sorted view for neighbour queries. The zero value is not usable; use
// NewSet.
//
// Storage layout (the protocol hot path runs through these sets several
// times per message, so the representation is chosen for cache locality
// over pointer convenience):
//
//   - slab: a contiguous []Entry. Slots freed by Remove/Sweep are chained
//     through their Version field (free is the head) and reused by the next
//     insert, last freed first, so steady-state churn allocates nothing.
//   - idx: a small open-addressed (linear probing, backward-shift
//     deletion) hash table mapping address → slab slot, eight bytes a
//     slot: the upper half of the address hash and the slot. A probe
//     compares hashes and confirms the full address in the slab on a
//     match, so a miss never leaves the probe table's cache line.
//   - order: the live slots in (ID, Addr) order, maintained incrementally
//     on insert/remove/ID-change (an O(n) memmove on sets §III.e bounds
//     to a handful of entries — never a full re-sort).
//
// Most sets are a few entries long and a population holds several per
// peer, so slab, order and sorted grow together by a quarter (at least two
// slots) from empty: exact fit would allocate on every insert, doubling
// left half of every array unused (DESIGN.md §16).
//
// Pointers returned by Get/Upsert point into the slab and are valid only
// until the next mutating call on the set.
type Set struct {
	slab  []Entry
	order []int32
	// idx[i].ref == 0 means empty, otherwise the slab slot is idx[i].ref-1.
	// len(idx) is a power of two (this probe is the hottest operation on
	// the protocol path — six structures are touched per inbound message).
	idx []setSlot
	// sorted caches the ID-ordered refs; rebuilt lazily (a straight copy
	// through order, no sorting) after a membership or ID change.
	sorted []proto.NodeRef
	free   int32 // head of the free-slot chain as slot+1; 0: none
	dirty  bool
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Len returns the number of entries.
func (s *Set) Len() int { return len(s.order) }

// Mem is heap held, in bytes, by kind of storage: entry slabs, probe
// tables, the order and sorted views, and fixed-size structs. Backing
// arrays count at capacity × element size, before size-class rounding.
type Mem struct{ Slabs, Index, Views, Fixed int }

// Add accumulates o into m.
func (m *Mem) Add(o Mem) {
	m.Slabs, m.Index, m.Views, m.Fixed = m.Slabs+o.Slabs, m.Index+o.Index, m.Views+o.Views, m.Fixed+o.Fixed
}

// MemBytes reports the heap the set holds.
func (s *Set) MemBytes() Mem {
	return Mem{cap(s.slab) * int(unsafe.Sizeof(Entry{})), cap(s.idx) * int(unsafe.Sizeof(setSlot{})),
		cap(s.order)*4 + cap(s.sorted)*int(unsafe.Sizeof(proto.NodeRef{})), int(unsafe.Sizeof(*s))}
}

// MapBytes estimates the heap behind a built-in map of n entries of slot
// bytes each (key plus value, aligned): a 48-byte header and groups of
// eight slots with a control byte each, seven in use. Maps never shrink,
// so for one that has been larger it is a floor.
func MapBytes(n, slot int) int { return 48 + (n+6)/7*8*(slot+1) }

// setSlot is one probe-table slot: the address's hash tag and its slab
// index + 1 (0 marks an empty slot, so any tag — including 0 — is valid).
type setSlot struct {
	tag uint32
	ref int32
}

// hashTag spreads an address over 32 bits (Fibonacci hashing: the upper
// half of the product depends on every address bit). Its low bits are the
// preferred probe slot.
func hashTag(addr uint64) uint32 { return uint32(addr * 0x9E3779B97F4A7C15 >> 32) }

// lookup returns the probe position and slab slot for addr, or ok=false
// (with the position of the first empty probe slot) when absent.
func (s *Set) lookup(addr uint64) (pos uint32, slot int32, ok bool) {
	if len(s.idx) == 0 {
		return 0, 0, false
	}
	mask := uint32(len(s.idx) - 1)
	tag := hashTag(addr)
	for pos = tag & mask; ; pos = (pos + 1) & mask {
		sl := s.idx[pos]
		if sl.ref == 0 {
			return pos, 0, false
		}
		if sl.tag == tag && s.slab[sl.ref-1].Ref.Addr == addr {
			return pos, sl.ref - 1, true
		}
	}
}

// idxInsert adds addr→slot to the probe table, growing it as needed. addr
// must not be present.
func (s *Set) idxInsert(addr uint64, slot int32) {
	if 4*(len(s.order)+1) > 3*len(s.idx) {
		s.idxGrow()
	}
	pos, _, _ := s.lookup(addr)
	s.idx[pos] = setSlot{tag: hashTag(addr), ref: slot + 1}
}

// idxGrow rebuilds the probe table at double capacity; the tags carry
// every slot's home, so the slab is not read.
func (s *Set) idxGrow() {
	old := s.idx
	s.idx = make([]setSlot, max(8, 2*len(old)))
	mask := uint32(len(s.idx) - 1)
	for _, sl := range old {
		if sl.ref == 0 {
			continue
		}
		pos := sl.tag & mask
		for s.idx[pos].ref != 0 {
			pos = (pos + 1) & mask
		}
		s.idx[pos] = sl
	}
}

// idxDelete removes the probe entry at pos, backward-shifting the cluster
// so linear probing needs no tombstones.
func (s *Set) idxDelete(pos uint32) {
	mask := uint32(len(s.idx) - 1)
	i := pos
	for {
		s.idx[i].ref = 0
		j := i
		for {
			j = (j + 1) & mask
			if s.idx[j].ref == 0 {
				return
			}
			home := s.idx[j].tag & mask
			// Move j back to i unless j's home lies cyclically in (i, j]
			// — then j is already as close to home as it can get.
			if i <= j {
				if i < home && home <= j {
					continue
				}
			} else if i < home || home <= j {
				continue
			}
			s.idx[i] = s.idx[j]
			i = j
			break
		}
	}
}

// Get returns the entry for addr, or nil. The pointer is valid until the
// next mutating call on the set.
func (s *Set) Get(addr uint64) *Entry {
	if _, slot, ok := s.lookup(addr); ok {
		return &s.slab[slot]
	}
	return nil
}

// refLess orders refs by (ID, Addr).
func refLess(a, b proto.NodeRef) bool {
	return a.ID < b.ID || (a.ID == b.ID && a.Addr < b.Addr)
}

// orderPos returns the position in order where ref belongs (the first
// live entry not ordered before ref).
func (s *Set) orderPos(ref proto.NodeRef) int {
	return sort.Search(len(s.order), func(i int) bool {
		return !refLess(s.slab[s.order[i]].Ref, ref)
	})
}

// orderInsert places slot into the ordered view.
func (s *Set) orderInsert(slot int32) {
	pos := s.orderPos(s.slab[slot].Ref)
	s.order = append(s.order, 0) // newSlot keeps cap(order) == cap(slab)
	copy(s.order[pos+1:], s.order[pos:])
	s.order[pos] = slot
}

// orderRemove drops the entry holding ref from the ordered view.
func (s *Set) orderRemove(ref proto.NodeRef) {
	pos := s.orderPos(ref)
	// Duplicate (ID, Addr) pairs cannot exist (Addr is the key), so pos
	// names the slot exactly.
	s.order = append(s.order[:pos], s.order[pos+1:]...)
}

// newSlot takes a slab slot from the free chain or extends the slab,
// growing slab and order together when full.
func (s *Set) newSlot() int32 {
	if slot := s.free - 1; slot >= 0 {
		s.free = int32(s.slab[slot].Version)
		return slot
	}
	if c := cap(s.slab); len(s.slab) == c {
		c += max(2, c/4)
		s.slab = append(make([]Entry, 0, c), s.slab...)
		s.order = append(make([]int32, 0, c), s.order...)
	}
	s.slab = append(s.slab, Entry{})
	return int32(len(s.slab) - 1)
}

// freeSlot puts a slot no view refers to any more on the free chain.
func (s *Set) freeSlot(slot int32) {
	s.slab[slot].Version = uint32(s.free)
	s.free = slot + 1
}

// UpsertMode grades how trustworthy an update's source is. The grades
// control which timestamps an update may advance — the mechanism that
// bounds how long dead nodes survive in routing tables (see Entry).
type UpsertMode uint8

// Upsert source grades.
const (
	// Direct: a message from the node itself. Advances both timestamps.
	Direct UpsertMode = iota
	// Vouched: an authoritative relation re-advertising its own dependants
	// (a parent shipping its superior list to children, a bus neighbour
	// shipping its children). Advances LastSeen only; the vouching chains
	// follow the tree and are acyclic, so staleness stays bounded.
	Vouched
	// Hearsay: any other third-party mention. Never advances timestamps of
	// an existing entry and only upgrades content (a node's advertised
	// level is taken monotonically upward, which stops stale copies from
	// echoing between peers forever).
	Hearsay
)

// Upsert inserts or refreshes an entry: the ref's metadata (level, score)
// is updated, flags are OR-ed in, timestamps advance according to mode,
// and the version stamp is applied when the stored data actually changed
// (pure keep-alive refreshes do not create delta traffic).
//
// validated is the instant the update's information was last confirmed: the
// current time for a direct message, or now minus the shipped age for
// relayed entries. Timestamps never move backward, so a stale relay cannot
// regress fresher knowledge — and because ages accumulate across hops, a
// dead node's entries drain everywhere within one TTL of its last words.
//
// The returned pointer is valid until the next mutating call on the set.
func (s *Set) Upsert(ref proto.NodeRef, flags proto.EntryFlag, validated time.Duration, version uint32, mode UpsertMode) *Entry {
	_, slot, ok := s.lookup(ref.Addr)
	if !ok {
		slot = s.newSlot()
		e := &s.slab[slot]
		*e = Entry{Ref: ref, Flags: flags, LastSeen: validated, Version: version, LastDirect: neverDirect}
		if mode == Direct {
			e.LastDirect = validated
		}
		s.idxInsert(ref.Addr, slot)
		s.orderInsert(slot)
		s.dirty = true
		return e
	}
	e := &s.slab[slot]
	applyContent := e.Ref != ref
	if mode == Hearsay && ref.MaxLevel < e.Ref.MaxLevel {
		applyContent = false
	}
	if applyContent {
		if e.Ref.ID != ref.ID {
			s.orderRemove(e.Ref)
			e.Ref = ref
			s.orderInsert(slot)
			s.dirty = true
		} else {
			e.Ref = ref
		}
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

// Touch records an active communication with addr, refreshing both
// timestamps. It reports whether the entry exists.
func (s *Set) Touch(addr uint64, now time.Duration) bool {
	if _, slot, ok := s.lookup(addr); ok {
		e := &s.slab[slot]
		e.LastSeen = now
		e.LastDirect = now
		return true
	}
	return false
}

// Remove deletes the entry for addr, reporting whether it existed.
func (s *Set) Remove(addr uint64) bool {
	pos, slot, ok := s.lookup(addr)
	if !ok {
		return false
	}
	s.orderRemove(s.slab[slot].Ref)
	s.idxDelete(pos)
	s.freeSlot(slot)
	s.dirty = true
	return true
}

// Sweep removes entries whose LastSeen is older than now-ttl and returns
// the removed refs in (ID, Addr) order (callers react to losses, e.g. a
// vanished parent). The returned slice is freshly allocated; Table.Sweep
// uses the scratch-buffered sweepInto instead.
func (s *Set) Sweep(now, ttl time.Duration) []proto.NodeRef {
	return s.sweepInto(nil, now, ttl)
}

// sweepInto is Sweep appending into out (Table.Sweep reuses one scratch
// buffer per structure across sweep ticks).
func (s *Set) sweepInto(out []proto.NodeRef, now, ttl time.Duration) []proto.NodeRef {
	w := 0
	for _, slot := range s.order {
		e := &s.slab[slot]
		if now-e.LastSeen > ttl {
			out = append(out, e.Ref)
			if pos, _, ok := s.lookup(e.Ref.Addr); ok {
				s.idxDelete(pos)
			}
			s.freeSlot(slot)
			continue
		}
		s.order[w] = slot
		w++
	}
	if w != len(s.order) {
		s.order = s.order[:w]
		s.dirty = true
	}
	return out
}

// Refs returns the entries' refs sorted by ID. The slice is shared with the
// set's cache: callers must not mutate it.
func (s *Set) Refs() []proto.NodeRef {
	if s.dirty || s.sorted == nil {
		if cap(s.sorted) < len(s.order) {
			s.sorted = make([]proto.NodeRef, 0, cap(s.order))
		}
		s.sorted = s.sorted[:0]
		for _, slot := range s.order {
			s.sorted = append(s.sorted, s.slab[slot].Ref)
		}
		s.dirty = false
	}
	return s.sorted
}

// Each calls fn for every entry in ID order. The *Entry is valid for the
// duration of the callback; fn must not mutate the set.
func (s *Set) Each(fn func(*Entry)) {
	s.Refs() // keep the cache-refresh side effect of the refs-driven walk
	for _, slot := range s.order {
		fn(&s.slab[slot])
	}
}

// Nearest returns the ref whose ID is Euclidean-nearest to x, and false on
// an empty set.
func (s *Set) Nearest(x idspace.ID) (proto.NodeRef, bool) {
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

// searchID returns the first position in the ordered view whose ID is >= x.
func (s *Set) searchID(refs []proto.NodeRef, x idspace.ID) int {
	return sort.Search(len(refs), func(i int) bool { return refs[i].ID >= x })
}

// Neighbors returns the refs immediately left and right of x in ID order
// (excluding any entry with exactly ID x). Either result may be zero when x
// is at an edge of the set.
func (s *Set) Neighbors(x idspace.ID) (left, right proto.NodeRef) {
	refs := s.Refs()
	i := s.searchID(refs, x)
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

// entryAt returns the live entry at ordered position i. Callers must have
// materialised refs via Refs() in the same unmutated state, so positions
// align between the refs cache and the order view.
func (s *Set) entryAt(i int) *Entry { return &s.slab[s.order[i]] }

// NeighborsFresh returns the direct-fresh refs immediately left and right
// of x: the neighbours this node may legitimately vouch for to others.
// Hearsay entries (never heard from directly, or silent beyond ttl) are
// skipped, which is what keeps dead nodes from circulating forever.
func (s *Set) NeighborsFresh(x idspace.ID, now, ttl time.Duration) (left, right proto.NodeRef) {
	refs := s.Refs()
	i := s.searchID(refs, x)
	for l := i - 1; l >= 0; l-- {
		if s.entryAt(l).DirectFresh(now, ttl) {
			left = refs[l]
			break
		}
	}
	for r := i; r < len(refs); r++ {
		if refs[r].ID == x {
			continue
		}
		if s.entryAt(r).DirectFresh(now, ttl) {
			right = refs[r]
			break
		}
	}
	return left, right
}

// NeighborsFreshK returns up to k direct-fresh refs on one side of x
// (left = below x), nearest first.
func (s *Set) NeighborsFreshK(x idspace.ID, now, ttl time.Duration, k int, leftSide bool) []proto.NodeRef {
	return s.AppendNeighborsFreshK(nil, x, now, ttl, k, leftSide)
}

// AppendNeighborsFreshK is NeighborsFreshK appending into out, for callers
// that reuse a scratch buffer on the per-keep-alive hot path.
func (s *Set) AppendNeighborsFreshK(out []proto.NodeRef, x idspace.ID, now, ttl time.Duration, k int, leftSide bool) []proto.NodeRef {
	refs := s.Refs()
	i := s.searchID(refs, x)
	found := 0
	if leftSide {
		for l := i - 1; l >= 0 && found < k; l-- {
			if s.entryAt(l).DirectFresh(now, ttl) {
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
		if s.entryAt(r).DirectFresh(now, ttl) {
			out = append(out, refs[r])
			found++
		}
	}
	return out
}

// SideRank returns how many entries lie strictly between x and id on id's
// side of x — 0 for the immediate neighbour. Used to bound how much
// level-0 knowledge a node accumulates per side.
func (s *Set) SideRank(x, id idspace.ID) int {
	refs := s.Refs()
	i := s.searchID(refs, x)
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

// FreshRefs returns the refs of entries heard from directly within ttl.
func (s *Set) FreshRefs(now, ttl time.Duration) []proto.NodeRef {
	return s.AppendFreshRefs(nil, now, ttl)
}

// AppendFreshRefs is FreshRefs appending into out (scratch-buffer form).
// Like every refs-returning query it hands out the cached view (which may
// lag content-only updates until the next membership change), not the live
// entry refs — callers advertise from the same snapshot Refs() shows.
func (s *Set) AppendFreshRefs(out []proto.NodeRef, now, ttl time.Duration) []proto.NodeRef {
	refs := s.Refs()
	for i, r := range refs {
		if s.entryAt(i).DirectFresh(now, ttl) {
			out = append(out, r)
		}
	}
	return out
}

// HasID reports whether any entry has exactly the given ID and returns it.
func (s *Set) HasID(x idspace.ID) (proto.NodeRef, bool) {
	refs := s.Refs()
	i := s.searchID(refs, x)
	if i < len(refs) && refs[i].ID == x {
		return refs[i], true
	}
	return proto.NodeRef{}, false
}

// ChangedSince appends to out one proto.Entry per item whose version is
// newer than since, tagging each with level, the entry flags, and its age
// at this provider. It implements the "exchange only out-of-date data"
// delta of §III.d.
func (s *Set) ChangedSince(since uint32, level uint8, now time.Duration, out []proto.Entry) []proto.Entry {
	// Materialise the refs cache first: delta composition runs on every
	// keep-alive, and the cache-refresh side effect (old code iterated
	// Refs() here) is what bounds how long content-only updates stay
	// invisible to the positional queries.
	s.Refs()
	for _, slot := range s.order {
		e := &s.slab[slot]
		if e.Version > since {
			out = append(out, proto.Entry{
				Ref: e.Ref, Level: level, Flags: e.Flags, Version: e.Version,
				AgeDs: proto.AgeFrom(now, e.LastSeen),
			})
		}
	}
	return out
}
