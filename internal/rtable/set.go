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
	"sync"
	"time"
	"unsafe"

	"treep/internal/idspace"
	"treep/internal/proto"
)

// Entry is one routing-table item: a flattened proto.NodeRef and its
// timestamps, 40 bytes, the small fields last so they share one word.
type Entry struct {
	ID   idspace.ID
	Addr uint64
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
	Version  uint32
	Score    uint16
	MaxLevel uint8
	Flags    proto.EntryFlag
}

// Ref returns the entry's node reference, live.
func (e *Entry) Ref() proto.NodeRef {
	return proto.NodeRef{ID: e.ID, Addr: e.Addr, MaxLevel: e.MaxLevel, Score: e.Score}
}

// setRef stores r's fields in the entry.
func (e *Entry) setRef(r proto.NodeRef) {
	e.ID, e.Addr, e.MaxLevel, e.Score = r.ID, r.Addr, r.MaxLevel, r.Score
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
// (ID, Addr) order, its lag records and a dirty bit, 32 bytes. The zero
// value is an empty set; NewSet makes one on the heap. A set must not be
// copied.
//
// An insert, removal or ID change shifts the slab's tail by memmove, never
// a re-sort: of the 11 058 sets of a settled 2000-peer overlay the median
// holds 4 entries, 99.1 % at most 16 and the largest 44 (DESIGN.md §16).
// Finding an address is a linear scan. The slab steps through
// idspace.NextCap's sizes from empty. Remove keeps the capacity, so
// steady-state churn allocates nothing and Upsert's ID change (a remove,
// then an insert) never shrinks and regrows in one call. A sweep that
// leaves the set at most half full moves it down to idspace.FitCap's slab,
// and one that empties it leaves no slab: tables drain by expiry, and a
// set that swelled gives the room back (DESIGN.md §16, "Slabs follow their
// sets down"). Neither way leaves garbage: the slab left behind goes back
// to a process-wide pool for its size, and the next size comes from one
// when a set gave it back first.
//
// Queries show each entry's level and score with a lag: a content-only
// update stays invisible until the next query after a membership or ID
// change (DESIGN.md §9). The set's lag records hold what they show for the
// entries that changed while the set was clean; every other entry shows
// its live ref. Get, Upsert and At give the live entry, valid until the
// next mutating call on the set: after it the slab the pointer reads may
// belong to another set, anywhere in the process (DESIGN.md §16).
type Set struct {
	_ noCopy
	// base is the slab's first element: n entries, room for c.
	base *Entry
	n, c uint32
	// more holds the lag records after the first; nil while at most one
	// entry lags.
	more *lagList
	// dirty marks a membership or ID change that no query has shown yet.
	dirty bool
	// lagLevel, lagScore and lagPos are the first lag record, held in what
	// would be padding; lagPos is 0 while no entry lags.
	lagLevel uint8
	lagScore uint16
	lagPos   uint32
}

// noCopy makes go vet's copylocks check reject a copied Set: a copy would
// share the slab and the pooled lag list with the original.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// lagRec is the level and score the queries show for the entry at slab
// position pos-1. A record lives only while its set is clean, when no entry
// moves, so the position names the entry as its address would.
type lagRec struct {
	pos   uint32
	score uint16
	level uint8
}

// lagList holds a set's lag records after the first, at most one a
// position. The first four sit in buf, so a list is one allocation.
type lagList struct {
	recs []lagRec
	buf  [4]lagRec
}

// lagPool holds the idle lag lists of every set in the process: a list
// lives from a set's second lagging entry to its next show, and few sets
// hold one at any instant.
var lagPool sync.Pool

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// slab returns the entries in (ID, Addr) order. It is built without the
// set's capacity, which only insert reaches for: slicing to n within c
// made Table.Touch ~40 % slower.
func (s *Set) slab() []Entry { return unsafe.Slice(s.base, s.n) }

// Len returns the number of entries.
func (s *Set) Len() int { return int(s.n) }

// Mem is heap held, in bytes, by kind of storage: entry slabs (with the lag
// lists) and fixed-size structs. Backing arrays count at capacity × element
// size, before size-class rounding.
type Mem struct{ Slabs, Fixed int }

// Add accumulates o into m.
func (m *Mem) Add(o Mem) { m.Slabs, m.Fixed = m.Slabs+o.Slabs, m.Fixed+o.Fixed }

// slabBytes is the heap behind the set's pointers: its slab and lag list.
func (s *Set) slabBytes() int {
	n := int(s.c) * int(unsafe.Sizeof(Entry{}))
	if l := s.more; l != nil {
		n += int(unsafe.Sizeof(*l))
		if cap(l.recs) > len(l.buf) {
			n += cap(l.recs) * int(unsafe.Sizeof(lagRec{}))
		}
	}
	return n
}

// lookup returns the position of addr's entry in the slab.
func (s *Set) lookup(addr uint64) (int, bool) {
	sl := s.slab()
	for i := range sl {
		if sl[i].Addr == addr {
			return i, true
		}
	}
	return 0, false
}

// Get returns the entry for addr, or nil. The pointer is valid until the
// next mutating call on the set.
func (s *Set) Get(addr uint64) *Entry {
	if i, ok := s.lookup(addr); ok {
		return &s.slab()[i]
	}
	return nil
}

// refLess orders refs by (ID, Addr).
func refLess(a, b proto.NodeRef) bool {
	return a.ID < b.ID || (a.ID == b.ID && a.Addr < b.Addr)
}

// insert places e at its (ID, Addr) position, growing the slab when full.
// e.Addr must not be present.
func (s *Set) insert(e Entry) *Entry {
	if s.n == s.c {
		s.grow()
	}
	sl := unsafe.Slice(s.base, s.n+1)
	i := sort.Search(int(s.n), func(i int) bool { return !refLess(sl[i].Ref(), e.Ref()) })
	copy(sl[i+1:], sl[i:s.n])
	sl[i], s.n = e, s.n+1
	s.changed()
	return &sl[i]
}

// grow moves the entries to the next slab size.
func (s *Set) grow() { s.resize(idspace.NextCap(int(s.c))) }

// resize moves the entries to a slab of c (0: none) and gives the old one
// back to its pool after the copy out of it: until then it is the set's
// (idspace.TakeSlab, PutSlab).
func (s *Set) resize(c int) {
	var next *Entry
	if c > 0 {
		next = unsafe.SliceData(append(idspace.TakeSlab[Entry](c), s.slab()...))
	}
	idspace.PutSlab(unsafe.Slice(s.base, s.c))
	s.base, s.c = next, uint32(c)
}

// release gives the slab back to its pool and leaves the set empty, as the
// zero value is: Table drops a vacated bus level's set through it.
func (s *Set) release() {
	s.n = 0
	s.resize(0)
	s.changed()
}

// remove drops the entry at position i.
func (s *Set) remove(i int) {
	sl := s.slab()
	copy(sl[i:], sl[i+1:])
	s.n--
	s.changed()
}

// lagged returns the level and score the queries show for position i, and
// whether it lags.
func (s *Set) lagged(i int) (level uint8, score uint16, ok bool) {
	p := uint32(i) + 1
	if s.lagPos == p {
		return s.lagLevel, s.lagScore, true
	}
	if s.more != nil {
		for _, r := range s.more.recs {
			if r.pos == p {
				return r.level, r.score, true
			}
		}
	}
	return 0, 0, false
}

// stash records the level and score the queries show for position i,
// before a content-only update: unless the set is dirty, when the next
// query shows every entry live, or i lags already, when the first record
// stands.
func (s *Set) stash(i int) {
	if s.dirty {
		return
	}
	if _, _, ok := s.lagged(i); ok {
		return
	}
	e := &s.slab()[i]
	if s.lagPos == 0 {
		s.lagLevel, s.lagScore, s.lagPos = e.MaxLevel, e.Score, uint32(i)+1
		return
	}
	if s.more == nil {
		if s.more, _ = lagPool.Get().(*lagList); s.more == nil {
			s.more = new(lagList)
			s.more.recs = s.more.buf[:0]
		}
	}
	s.more.recs = append(s.more.recs, lagRec{pos: uint32(i) + 1, score: e.Score, level: e.MaxLevel})
}

// show ends the lag after a membership or ID change, and every entry shows
// its live ref. Every refs-reading query, Each and ChangedSince call it
// first; nothing else may, because when a level becomes visible decides
// elections. The records went at the change (changed); from here on a
// content-only update is recorded again.
func (s *Set) show() { s.dirty = false }

// changed marks a membership or ID change: the lag records end, the list
// goes back to the pool, and no record is made until the next query.
func (s *Set) changed() {
	s.dirty, s.lagPos = true, 0
	if s.more != nil {
		s.more.recs = s.more.recs[:0]
		lagPool.Put(s.more)
		s.more = nil
	}
}

// shown returns the ref of e, the entry at position i, as the queries show
// it. It spells out lagged's scan so that it inlines into the walks.
func (s *Set) shown(e *Entry, i int) proto.NodeRef {
	r := e.Ref()
	if p := uint32(i) + 1; s.lagPos == p {
		r.MaxLevel, r.Score = s.lagLevel, s.lagScore
	} else if s.more != nil {
		for _, l := range s.more.recs {
			if l.pos == p {
				r.MaxLevel, r.Score = l.level, l.score
			}
		}
	}
	return r
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
		e := Entry{Flags: flags, LastSeen: validated, Version: version, LastDirect: neverDirect}
		e.setRef(ref)
		if mode == Direct {
			e.LastDirect = validated
		}
		return s.insert(e)
	}
	e := &s.slab()[i]
	applyContent := e.Ref() != ref
	if mode == Hearsay && ref.MaxLevel < e.MaxLevel {
		applyContent = false
	}
	if applyContent {
		if e.ID != ref.ID {
			moved := *e
			s.remove(i)
			moved.setRef(ref)
			e = s.insert(moved)
		} else {
			s.stash(i)
			e.setRef(ref)
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
		e := &s.slab()[i]
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
// A set it leaves at most half full moves to the least slab that holds it,
// and an empty one holds none. The move keeps the order, and the lag
// records ended with the removals, so no query can tell.
func (s *Set) sweepInto(out []proto.NodeRef, now, ttl time.Duration) []proto.NodeRef {
	sl := s.slab()
	w := 0
	for i := range sl {
		if e := &sl[i]; now-e.LastSeen > ttl {
			out = append(out, e.Ref())
			continue
		}
		if w != i {
			sl[w] = sl[i]
		}
		w++
	}
	if w != len(sl) {
		s.n = uint32(w)
		s.changed()
		if c := idspace.FitCap(w); 2*w <= int(s.c) && c < int(s.c) {
			s.resize(c)
		}
	}
	return out
}

// At returns position i in ID order: the ref as the queries show it and the
// live entry. A walk is `for i := range s.Len() { r, e := s.At(i); … }`,
// an index loop, not a range-over-func iterator whose body would be a
// closure (DESIGN.md §16), and must not mutate the set.
func (s *Set) At(i int) (proto.NodeRef, *Entry) {
	s.show()
	e := &s.slab()[i]
	return s.shown(e, i), e
}

// Refs returns a copy of the refs in ID order, as the queries show them.
func (s *Set) Refs() []proto.NodeRef {
	refs := make([]proto.NodeRef, s.Len())
	for i := range refs {
		refs[i], _ = s.At(i)
	}
	return refs
}

// Each calls fn for every entry in ID order. The *Entry is valid for the
// duration of the callback; fn must not mutate the set.
func (s *Set) Each(fn func(*Entry)) {
	s.show()
	sl := s.slab()
	for i := range sl {
		fn(&sl[i])
	}
}

// Nearest returns the ref first in the nearest-first order to x
// (proto.Nearer) among those whose address is not in skip, and false when
// there is none.
func (s *Set) Nearest(x idspace.ID, skip []uint64) (proto.NodeRef, bool) {
	s.show()
	var best proto.NodeRef
	found := false
	sl := s.slab()
	for i := range sl {
		r := s.shown(&sl[i], i)
		if !slices.Contains(skip, r.Addr) && (!found || proto.Nearer(x, r, best)) {
			best, found = r, true
		}
	}
	return best, found
}

// searchID shows the set and returns its slab and the first position whose
// ID is >= x.
func (s *Set) searchID(x idspace.ID) ([]Entry, int) {
	s.show()
	sl := s.slab()
	return sl, sort.Search(len(sl), func(i int) bool { return sl[i].ID >= x })
}

// Neighbors returns the refs immediately left and right of x in ID order
// (excluding any entry with exactly ID x). Either result may be zero when x
// is at an edge of the set.
func (s *Set) Neighbors(x idspace.ID) (left, right proto.NodeRef) {
	sl, i := s.searchID(x)
	if i > 0 {
		left = s.shown(&sl[i-1], i-1)
	}
	for i < len(sl) && sl[i].ID == x {
		i++
	}
	if i < len(sl) {
		right = s.shown(&sl[i], i)
	}
	return left, right
}

// NeighborsFresh returns the direct-fresh refs immediately left and right
// of x: the neighbours this node may legitimately vouch for to others.
// Hearsay entries (never heard from directly, or silent beyond ttl) are
// skipped, which is what keeps dead nodes from circulating forever.
func (s *Set) NeighborsFresh(x idspace.ID, now, ttl time.Duration) (left, right proto.NodeRef) {
	sl, i := s.searchID(x)
	for l := i - 1; l >= 0; l-- {
		if sl[l].DirectFresh(now, ttl) {
			left = s.shown(&sl[l], l)
			break
		}
	}
	for r := i; r < len(sl); r++ {
		if e := &sl[r]; e.ID != x && e.DirectFresh(now, ttl) {
			right = s.shown(&sl[r], r)
			break
		}
	}
	return left, right
}

// AppendNeighborsFreshK appends to out up to k direct-fresh refs on one
// side of x (left = below x), nearest first.
func (s *Set) AppendNeighborsFreshK(out []proto.NodeRef, x idspace.ID, now, ttl time.Duration, k int, leftSide bool) []proto.NodeRef {
	sl, i := s.searchID(x)
	found := 0
	if leftSide {
		for l := i - 1; l >= 0 && found < k; l-- {
			if sl[l].DirectFresh(now, ttl) {
				out = append(out, s.shown(&sl[l], l))
				found++
			}
		}
		return out
	}
	for r := i; r < len(sl) && found < k; r++ {
		if e := &sl[r]; e.ID != x && e.DirectFresh(now, ttl) {
			out = append(out, s.shown(&sl[r], r))
			found++
		}
	}
	return out
}

// SideRank returns how many entries lie strictly between x and id on id's
// side of x — 0 for the immediate neighbour. Used to bound how much
// level-0 knowledge a node accumulates per side.
func (s *Set) SideRank(x, id idspace.ID) int {
	sl, i := s.searchID(x)
	rank := 0
	if id < x {
		for l := i - 1; l >= 0 && sl[l].ID > id; l-- {
			rank++
		}
		return rank
	}
	for r := i; r < len(sl) && sl[r].ID < id; r++ {
		if sl[r].ID != x {
			rank++
		}
	}
	return rank
}

// AppendFreshRefs appends to out the refs, as shown, of entries heard from
// directly within ttl: callers advertise what the other queries show.
func (s *Set) AppendFreshRefs(out []proto.NodeRef, now, ttl time.Duration) []proto.NodeRef {
	s.show()
	sl := s.slab()
	for i := range sl {
		if sl[i].DirectFresh(now, ttl) {
			out = append(out, s.shown(&sl[i], i))
		}
	}
	return out
}

// hasID reports whether any entry has exactly the given ID and returns it.
func (s *Set) hasID(x idspace.ID) (proto.NodeRef, bool) {
	sl, i := s.searchID(x)
	if i < len(sl) && sl[i].ID == x {
		return s.shown(&sl[i], i), true
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
	sl := s.slab()
	for i := range sl {
		e := &sl[i]
		if e.Version > since {
			out = append(out, proto.Entry{
				Ref: e.Ref(), Level: level, Flags: e.Flags, Version: e.Version,
				AgeDs: proto.AgeFrom(now, e.LastSeen),
			})
		}
	}
	return out
}
