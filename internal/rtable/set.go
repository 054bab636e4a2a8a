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
	"slices"
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
	// shownLevel and shownScore are Ref.MaxLevel and Ref.Score as queries
	// show them: they lag content-only updates until the next query after a
	// membership or ID change (Set.show, DESIGN.md §9). They fill padding.
	shownLevel uint8
	shownScore uint16
}

// shown returns the entry's ref as the set's queries show it.
func (e *Entry) shown() proto.NodeRef {
	r := e.Ref
	r.MaxLevel, r.Score = e.shownLevel, e.shownScore
	return r
}

// neverDirect marks an entry that has never been heard from directly. Far
// enough in the past that now-LastDirect always exceeds any TTL, without
// risking duration overflow.
const neverDirect = time.Duration(-1) << 40

// DirectFresh reports whether the node itself was heard from within ttl.
func (e *Entry) DirectFresh(now, ttl time.Duration) bool {
	return now-e.LastDirect <= ttl
}

// Set is a collection of entries keyed by transport address: one slab in
// (ID, Addr) order and a dirty bit, 32 bytes. The zero value is not usable;
// use NewSet.
//
// An insert, removal or ID change shifts the slab's tail by memmove, never
// a re-sort: of the 11 058 sets of a settled 2000-peer overlay the median
// holds 4 entries, 99.1 % at most 16 and the largest 44 (DESIGN.md §16).
// Finding an address is a linear scan. The slab grows by a quarter (at
// least two entries) from empty: exact fit would allocate on every insert,
// doubling left half of every array unused. Removal keeps the capacity, so
// steady-state churn allocates nothing.
//
// Queries hand out refs as shown (see Entry). Get, Upsert and At give the
// live entry, valid until the next mutating call on the set.
type Set struct {
	slab []Entry
	// dirty marks a membership or ID change that no query has shown yet.
	dirty bool
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// Len returns the number of entries.
func (s *Set) Len() int { return len(s.slab) }

// Mem is heap held, in bytes, by kind of storage: entry slabs and
// fixed-size structs. Backing arrays count at capacity × element size,
// before size-class rounding.
type Mem struct{ Slabs, Fixed int }

// Add accumulates o into m.
func (m *Mem) Add(o Mem) { m.Slabs, m.Fixed = m.Slabs+o.Slabs, m.Fixed+o.Fixed }

// MemBytes reports the heap the set holds.
func (s *Set) MemBytes() Mem {
	return Mem{cap(s.slab) * int(unsafe.Sizeof(Entry{})), int(unsafe.Sizeof(*s))}
}

// lookup returns the position of addr's entry in the slab.
func (s *Set) lookup(addr uint64) (int, bool) {
	for i := range s.slab {
		if s.slab[i].Ref.Addr == addr {
			return i, true
		}
	}
	return 0, false
}

// Get returns the entry for addr, or nil. The pointer is valid until the
// next mutating call on the set.
func (s *Set) Get(addr uint64) *Entry {
	if i, ok := s.lookup(addr); ok {
		return &s.slab[i]
	}
	return nil
}

// refLess orders refs by (ID, Addr).
func refLess(a, b proto.NodeRef) bool {
	return a.ID < b.ID || (a.ID == b.ID && a.Addr < b.Addr)
}

// insert places e at its (ID, Addr) position, growing the slab by a
// quarter when full. e.Ref.Addr must not be present.
func (s *Set) insert(e Entry) *Entry {
	if c := cap(s.slab); len(s.slab) == c {
		s.slab = append(make([]Entry, 0, c+max(2, c/4)), s.slab...)
	}
	i := sort.Search(len(s.slab), func(i int) bool { return !refLess(s.slab[i].Ref, e.Ref) })
	s.slab = slices.Insert(s.slab, i, e)
	s.dirty = true
	return &s.slab[i]
}

// remove drops the entry at position i.
func (s *Set) remove(i int) {
	s.slab = slices.Delete(s.slab, i, i+1)
	s.dirty = true
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
	i, ok := s.lookup(ref.Addr)
	if !ok {
		e := Entry{Ref: ref, Flags: flags, LastSeen: validated, Version: version, LastDirect: neverDirect}
		if mode == Direct {
			e.LastDirect = validated
		}
		return s.insert(e)
	}
	e := &s.slab[i]
	applyContent := e.Ref != ref
	if mode == Hearsay && ref.MaxLevel < e.Ref.MaxLevel {
		applyContent = false
	}
	if applyContent {
		if e.Ref.ID != ref.ID {
			moved := *e
			s.remove(i)
			moved.Ref = ref
			e = s.insert(moved)
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
	if i, ok := s.lookup(addr); ok {
		e := &s.slab[i]
		e.LastSeen = now
		e.LastDirect = now
		return true
	}
	return false
}

// Remove deletes the entry for addr, reporting whether it existed.
func (s *Set) Remove(addr uint64) bool {
	i, ok := s.lookup(addr)
	if ok {
		s.remove(i)
	}
	return ok
}

// sweepInto removes entries whose LastSeen is older than now-ttl and
// appends the removed refs to out in (ID, Addr) order (callers react to
// losses, e.g. a vanished parent; Table.Sweep passes its scratch buffer).
func (s *Set) sweepInto(out []proto.NodeRef, now, ttl time.Duration) []proto.NodeRef {
	w := 0
	for i := range s.slab {
		if e := &s.slab[i]; now-e.LastSeen > ttl {
			out = append(out, e.Ref)
			continue
		}
		if w != i {
			s.slab[w] = s.slab[i]
		}
		w++
	}
	if w != len(s.slab) {
		s.slab = s.slab[:w]
		s.dirty = true
	}
	return out
}

// show refreshes every entry's shown fields after a membership or ID change.
// Every refs-reading query, Each and ChangedSince call it first; nothing
// else may, because when a level becomes visible decides elections.
func (s *Set) show() {
	if !s.dirty {
		return
	}
	for i := range s.slab {
		e := &s.slab[i]
		e.shownLevel, e.shownScore = e.Ref.MaxLevel, e.Ref.Score
	}
	s.dirty = false
}

// At returns position i in ID order: the ref as the queries show it and the
// live entry. A walk is `for i := range s.Len() { r, e := s.At(i); … }`,
// an index loop, not a range-over-func iterator whose body would be a
// closure (DESIGN.md §16), and must not mutate the set.
func (s *Set) At(i int) (proto.NodeRef, *Entry) {
	s.show()
	e := &s.slab[i]
	return e.shown(), e
}

// Refs returns a copy of the refs in ID order, as the queries show them.
func (s *Set) Refs() []proto.NodeRef {
	refs := make([]proto.NodeRef, len(s.slab))
	for i := range refs {
		refs[i], _ = s.At(i)
	}
	return refs
}

// Each calls fn for every entry in ID order. The *Entry is valid for the
// duration of the callback; fn must not mutate the set.
func (s *Set) Each(fn func(*Entry)) {
	s.show()
	for i := range s.slab {
		fn(&s.slab[i])
	}
}

// Nearest returns the ref first in the nearest-first order to x
// (proto.Nearer) among those whose address is not in skip, and false when
// there is none.
func (s *Set) Nearest(x idspace.ID, skip []uint64) (proto.NodeRef, bool) {
	s.show()
	var best proto.NodeRef
	found := false
	for i := range s.slab {
		r := s.slab[i].shown()
		if !slices.Contains(skip, r.Addr) && (!found || proto.Nearer(x, r, best)) {
			best, found = r, true
		}
	}
	return best, found
}

// searchID shows the set and returns the first position whose ID is >= x.
func (s *Set) searchID(x idspace.ID) int {
	s.show()
	return sort.Search(len(s.slab), func(i int) bool { return s.slab[i].Ref.ID >= x })
}

// Neighbors returns the refs immediately left and right of x in ID order
// (excluding any entry with exactly ID x). Either result may be zero when x
// is at an edge of the set.
func (s *Set) Neighbors(x idspace.ID) (left, right proto.NodeRef) {
	i := s.searchID(x)
	if i > 0 {
		left = s.slab[i-1].shown()
	}
	for i < len(s.slab) && s.slab[i].Ref.ID == x {
		i++
	}
	if i < len(s.slab) {
		right = s.slab[i].shown()
	}
	return left, right
}

// NeighborsFresh returns the direct-fresh refs immediately left and right
// of x: the neighbours this node may legitimately vouch for to others.
// Hearsay entries (never heard from directly, or silent beyond ttl) are
// skipped, which is what keeps dead nodes from circulating forever.
func (s *Set) NeighborsFresh(x idspace.ID, now, ttl time.Duration) (left, right proto.NodeRef) {
	i := s.searchID(x)
	for l := i - 1; l >= 0; l-- {
		if e := &s.slab[l]; e.DirectFresh(now, ttl) {
			left = e.shown()
			break
		}
	}
	for r := i; r < len(s.slab); r++ {
		if e := &s.slab[r]; e.Ref.ID != x && e.DirectFresh(now, ttl) {
			right = e.shown()
			break
		}
	}
	return left, right
}

// AppendNeighborsFreshK appends to out up to k direct-fresh refs on one
// side of x (left = below x), nearest first.
func (s *Set) AppendNeighborsFreshK(out []proto.NodeRef, x idspace.ID, now, ttl time.Duration, k int, leftSide bool) []proto.NodeRef {
	i := s.searchID(x)
	found := 0
	if leftSide {
		for l := i - 1; l >= 0 && found < k; l-- {
			if e := &s.slab[l]; e.DirectFresh(now, ttl) {
				out = append(out, e.shown())
				found++
			}
		}
		return out
	}
	for r := i; r < len(s.slab) && found < k; r++ {
		if e := &s.slab[r]; e.Ref.ID != x && e.DirectFresh(now, ttl) {
			out = append(out, e.shown())
			found++
		}
	}
	return out
}

// SideRank returns how many entries lie strictly between x and id on id's
// side of x — 0 for the immediate neighbour. Used to bound how much
// level-0 knowledge a node accumulates per side.
func (s *Set) SideRank(x, id idspace.ID) int {
	i := s.searchID(x)
	rank := 0
	if id < x {
		for l := i - 1; l >= 0 && s.slab[l].Ref.ID > id; l-- {
			rank++
		}
		return rank
	}
	for r := i; r < len(s.slab) && s.slab[r].Ref.ID < id; r++ {
		if s.slab[r].Ref.ID != x {
			rank++
		}
	}
	return rank
}

// AppendFreshRefs appends to out the refs, as shown, of entries heard from
// directly within ttl: callers advertise what the other queries show.
func (s *Set) AppendFreshRefs(out []proto.NodeRef, now, ttl time.Duration) []proto.NodeRef {
	s.show()
	for i := range s.slab {
		if e := &s.slab[i]; e.DirectFresh(now, ttl) {
			out = append(out, e.shown())
		}
	}
	return out
}

// HasID reports whether any entry has exactly the given ID and returns it.
func (s *Set) HasID(x idspace.ID) (proto.NodeRef, bool) {
	i := s.searchID(x)
	if i < len(s.slab) && s.slab[i].Ref.ID == x {
		return s.slab[i].shown(), true
	}
	return proto.NodeRef{}, false
}

// ChangedSince appends to out one proto.Entry per item whose version is
// newer than since, tagging each with level, the entry flags, and its age
// at this provider. It implements the "exchange only out-of-date data"
// delta of §III.d, with the live refs. It runs on every keep-alive, so its
// show bounds how long the queries lag content-only updates.
func (s *Set) ChangedSince(since uint32, level uint8, now time.Duration, out []proto.Entry) []proto.Entry {
	s.show()
	for i := range s.slab {
		e := &s.slab[i]
		if e.Version > since {
			out = append(out, proto.Entry{
				Ref: e.Ref, Level: level, Flags: e.Flags, Version: e.Version,
				AgeDs: proto.AgeFrom(now, e.LastSeen),
			})
		}
	}
	return out
}
