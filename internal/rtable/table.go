package rtable

import (
	"fmt"
	"strings"
	"time"
	"unsafe"

	"treep/internal/idspace"
	"treep/internal/proto"
)

// Table aggregates a node's complete routing state: the six structures of
// §III.c plus the version counter driving delta synchronisation.
type Table struct {
	// Level0 holds the node's level-0 neighbours (§III.c table 1). The
	// four sets off the bus live inside the table.
	Level0 Set
	// Bus holds, per level i > 0, the node's same-level view: direct bus
	// neighbours, indirect neighbours (neighbours-of-neighbours), and
	// level-0 contacts known to be members of level i (§III.c table 2).
	// Indexed by level, nil where the node holds no view (slot 0 always);
	// read one level through BusAt, which takes any level.
	Bus []*Set
	// Children holds the node's own children (§III.c table 3, first part).
	Children Set
	// NbrChildren holds children of direct bus neighbours (table 3, second
	// part) — the replication that lets a node adopt orphans when a
	// neighbour dies.
	NbrChildren Set
	// Superiors is the superior node list: ancestors plus the immediate
	// parent's direct neighbours (§III.c table 5).
	Superiors Set

	// parent is the immediate parent of the node's top level (table 4).
	// Tracked outside the sets because it is a single slot with dedicated
	// loss semantics.
	parent    Entry
	hasParent bool

	// version is the monotone stamp for delta sync; bumped on every
	// data-changing mutation.
	version uint32

	// sc backs the slices Sweep hands out.
	sc *Scratch
}

// Scratch backs the slices of a SweepResult. The tables of one event loop
// share one (NewWith), so no table carries sweep buffers of its own and a
// sweep tick allocates nothing in steady state; a result is valid until
// the next Sweep through the same Scratch.
type Scratch struct {
	refs  []proto.NodeRef // every expired ref of one sweep, structure after structure
	spans []BusSweep
}

// New returns an empty table with a scratch of its own.
func New() *Table { return NewWith(&Scratch{}) }

// NewWith returns an empty table sweeping through the caller's scratch.
func NewWith(sc *Scratch) *Table {
	return &Table{sc: sc}
}

// NextVersion bumps and returns the table version stamp.
func (t *Table) NextVersion() uint32 {
	t.version++
	return t.version
}

// Version returns the current version stamp.
func (t *Table) Version() uint32 { return t.version }

// BusAt returns the set for level i, or nil when the node holds none.
func (t *Table) BusAt(i uint8) *Set {
	if int(i) < len(t.Bus) {
		return t.Bus[i]
	}
	return nil
}

// BusLevel returns the set for level i, creating it when needed.
func (t *Table) BusLevel(i uint8) *Set {
	if int(i) >= len(t.Bus) {
		bus := make([]*Set, int(i)+1)
		copy(bus, t.Bus)
		t.Bus = bus
	}
	if t.Bus[i] == nil {
		t.Bus[i] = NewSet()
	}
	return t.Bus[i]
}

// DropLevel removes the whole set for a bus level (demotion vacates it).
func (t *Table) DropLevel(i uint8) {
	if int(i) < len(t.Bus) && t.Bus[i] != nil {
		t.dropBus(int(i))
	}
}

// dropBus vacates bus level lvl, which holds a set: the set's slab goes
// back to its pool, and a caller still holding the set finds it empty.
func (t *Table) dropBus(lvl int) {
	t.Bus[lvl].release()
	t.Bus[lvl] = nil
}

// SetParent installs or refreshes the parent slot. Adoption counts as
// direct credit: the relationship is probed immediately by a child report,
// and expiry reclaims the slot if the parent never answers.
func (t *Table) SetParent(ref proto.NodeRef, now time.Duration) {
	t.parent = Entry{Flags: proto.FParent, LastSeen: now, LastDirect: now, Version: t.NextVersion()}
	t.parent.setRef(ref)
	t.hasParent = true
}

// Parent returns the parent ref and whether one is known.
func (t *Table) Parent() (proto.NodeRef, bool) {
	if !t.hasParent {
		return proto.NodeRef{}, false
	}
	return t.parent.Ref(), true
}

// ClearParent drops the parent slot.
func (t *Table) ClearParent() { t.hasParent = false }

// touchParent refreshes the parent's timestamps if from matches it.
func (t *Table) touchParent(from uint64, now time.Duration) {
	if t.hasParent && t.parent.Addr == from {
		t.parent.LastSeen = now
		t.parent.LastDirect = now
	}
}

// ParentExpired reports whether a parent is set and stale.
func (t *Table) ParentExpired(now, ttl time.Duration) bool {
	return t.hasParent && now-t.parent.LastSeen > ttl
}

// walk is the number of positions in the one order every walk observes —
// Level0, the bus levels ascending, Children, NbrChildren, Superiors — and
// setAt the set at position i with its bus level (0 off the bus), nil for
// a level the node holds no view of. A walk is
//
//	for i, end := 0, t.walk(); i < end; i++ {
//		if s, lvl := t.setAt(i); s != nil { … }
//	}
//
// and handles the parent slot, which is not a set, once after the loop
// where it covers it. A plain loop over two inlinable calls, not a
// range-over-func iterator: that form makes every loop body a closure and
// every variable the body assigns a memory cell (DESIGN.md §16).
func (t *Table) walk() int { return max(len(t.Bus), 1) + 3 }

func (t *Table) setAt(i int) (*Set, uint8) {
	switch nb := max(len(t.Bus), 1); {
	case i == 0:
		return &t.Level0, 0
	case i < nb:
		return t.Bus[i], uint8(i)
	case i == nb:
		return &t.Children, 0
	case i == nb+1:
		return &t.NbrChildren, 0
	}
	return &t.Superiors, 0
}

// Touch refreshes LastSeen for addr in every structure that knows it; it
// implements "this timestamp is reset at every occurrence of an active
// communication with the corresponding node".
func (t *Table) Touch(addr uint64, now time.Duration) {
	for i, end := 0, t.walk(); i < end; i++ {
		if s, _ := t.setAt(i); s != nil {
			s.Touch(addr, now)
		}
	}
	t.touchParent(addr, now)
}

// LastDirect returns the latest active communication with addr recorded
// in any structure, and false when no entry for it has ever been heard
// from directly. Lookup forwarding asks it whether a next hop is first-hand
// knowledge or hearsay.
func (t *Table) LastDirect(addr uint64) (time.Duration, bool) {
	last := neverDirect
	for i, end := 0, t.walk(); i < end; i++ {
		if s, _ := t.setAt(i); s != nil {
			if e := s.Get(addr); e != nil && e.LastDirect > last {
				last = e.LastDirect
			}
		}
	}
	if t.hasParent && t.parent.Addr == addr && t.parent.LastDirect > last {
		last = t.parent.LastDirect
	}
	return last, last != neverDirect
}

// RemoveEverywhere deletes addr from every structure (a peer known dead).
// It reports whether anything was removed and whether the parent slot was
// cleared.
func (t *Table) RemoveEverywhere(addr uint64) (removed, parentLost bool) {
	for i, end := 0, t.walk(); i < end; i++ {
		if s, _ := t.setAt(i); s != nil && s.Remove(addr) {
			removed = true
		}
	}
	if t.hasParent && t.parent.Addr == addr {
		t.ClearParent()
		removed, parentLost = true, true
	}
	return removed, parentLost
}

// DowngradeLevels removes addr from every bus level above maxLevel: the
// peer itself just advertised the lower level, so higher-level membership
// knowledge about it is stale by first-hand evidence. (A demoting node
// only tells its direct bus neighbours; everyone else holds the entry
// until this, since any direct traffic keeps refreshing its timestamp.)
func (t *Table) DowngradeLevels(addr uint64, maxLevel uint8) bool {
	removed := false
	for lvl := int(maxLevel) + 1; lvl < len(t.Bus); lvl++ {
		if s := t.Bus[lvl]; s != nil && s.Remove(addr) {
			removed = true
			if s.Len() == 0 {
				t.dropBus(lvl)
			}
		}
	}
	return removed
}

// SweepResult lists what a Sweep expired, so the protocol can react
// (restart elections, adopt orphans, relink the bus).
type SweepResult struct {
	Level0      []proto.NodeRef
	Bus         []BusSweep // levels that lost members, ascending
	Children    []proto.NodeRef
	NbrChildren []proto.NodeRef
	Superiors   []proto.NodeRef
	ParentLost  bool
	Parent      proto.NodeRef
}

// BusSweep is what one bus level lost in a sweep.
type BusSweep struct {
	Level uint8
	Refs  []proto.NodeRef
}

// Empty reports whether the sweep removed nothing.
func (r SweepResult) Empty() bool {
	return len(r.Level0) == 0 && len(r.Bus) == 0 && len(r.Children) == 0 &&
		len(r.NbrChildren) == 0 && len(r.Superiors) == 0 && !r.ParentLost
}

// Sweep expires stale entries in every structure. The slices in the
// result share the table's Scratch (see there for how long they last).
func (t *Table) Sweep(now, ttl time.Duration) SweepResult {
	// One backing array takes every removal; the result is cut from it at
	// the end, once append can no longer move it. ends[k] is where the k-th
	// set off the bus (Level0, Children, NbrChildren, Superiors) stops.
	refs, spans := t.sc.refs[:0], t.sc.spans[:0]
	var ends [4]int
	k := 0
	for i, end := 0, t.walk(); i < end; i++ {
		if s, lvl := t.setAt(i); s != nil {
			before := len(refs)
			refs = s.sweepInto(refs, now, ttl)
			if lvl == 0 {
				ends[k], k = len(refs), k+1
				continue
			}
			if len(refs) > before {
				spans = append(spans, BusSweep{Level: lvl, Refs: refs[before:]})
			}
			if s.Len() == 0 {
				t.dropBus(int(lvl))
			}
		}
	}
	t.sc.refs, t.sc.spans = refs, spans

	n0, nc, nn := ends[0], ends[1], ends[2]
	nb := n0 // where the bus levels' removals stop
	for i := range spans {
		start := nb
		nb += len(spans[i].Refs)
		spans[i].Refs = refs[start:nb:nb]
	}
	res := SweepResult{Level0: refs[:n0:n0], Bus: spans, Children: refs[nb:nc:nc],
		NbrChildren: refs[nc:nn:nn], Superiors: refs[nn:]}
	if t.ParentExpired(now, ttl) {
		res.ParentLost = true
		res.Parent = t.parent.Ref()
		t.ClearParent()
	}
	return res
}

// FindID looks for an exact ID anywhere in the table (the "target X is in
// the routing table" test of the §III.f routing algorithm).
func (t *Table) FindID(x idspace.ID) (proto.NodeRef, bool) {
	for i, end := 0, t.walk(); i < end; i++ {
		if s, _ := t.setAt(i); s != nil {
			if r, ok := s.hasID(x); ok {
				return r, true
			}
		}
	}
	if t.hasParent && t.parent.ID == x {
		return t.parent.Ref(), true
	}
	return proto.NodeRef{}, false
}

// Candidates appends every distinct peer in the table to out (deduplicated
// by address, keeping the ref with the highest MaxLevel, since that one
// carries the most routing power). The result is the candidate set C(a)
// the lookup algorithms select next hops from.
func (t *Table) Candidates(out []proto.NodeRef) []proto.NodeRef {
	// Linear-scan dedup from the caller's starting point: the table holds
	// a few dozen entries at most (§III.e), and a map here costs two
	// allocations on every routing decision.
	base := len(out)
	for i, end := 0, t.walk(); i < end; i++ {
		if s, _ := t.setAt(i); s != nil {
			s.show()
			sl := s.slab()
			for j := range sl {
				out = appendCandidate(out, base, s.shown(&sl[j], j))
			}
		}
	}
	if t.hasParent {
		out = appendCandidate(out, base, t.parent.Ref())
	}
	return out
}

// appendCandidate merges r into out[base:], deduplicating by address and
// keeping the higher MaxLevel per peer.
func appendCandidate(out []proto.NodeRef, base int, r proto.NodeRef) []proto.NodeRef {
	for i := base; i < len(out); i++ {
		if out[i].Addr == r.Addr {
			if r.MaxLevel > out[i].MaxLevel {
				out[i] = r
			}
			return out
		}
	}
	return append(out, r)
}

// NearestInRange returns the known peer with ID in [lo, hi] nearest to
// toward, excluding the given address, across every structure in the
// table. Ring repair probes use it to pick the next hop toward a void:
// the interval is the unexplored gap, toward is its near edge, and the
// hierarchy/bus entries let a probe cross stretches where level-0
// knowledge has died out. Ties break by proto.Nearer, so every replica of
// the same table picks the same hop. lo > hi means an empty interval.
// Allocation-free: it runs on the periodic sweep path.
func (t *Table) NearestInRange(lo, hi, toward idspace.ID, exclude uint64) (proto.NodeRef, bool) {
	var sc nearScan
	sc.lo, sc.hi, sc.toward, sc.exclude = lo, hi, toward, exclude
	if lo > hi {
		return proto.NodeRef{}, false
	}
	for i, end := 0, t.walk(); i < end; i++ {
		if s, _ := t.setAt(i); s != nil {
			s.show()
			sl := s.slab()
			for j := range sl {
				sc.consider(s.shown(&sl[j], j))
			}
		}
	}
	if t.hasParent {
		sc.consider(t.parent.Ref())
	}
	return sc.best, sc.found
}

// nearScan accumulates the NearestInRange winner.
type nearScan struct {
	lo, hi, toward idspace.ID
	exclude        uint64
	best           proto.NodeRef
	found          bool
}

func (sc *nearScan) consider(r proto.NodeRef) {
	if r.Addr == sc.exclude || r.ID < sc.lo || r.ID > sc.hi {
		return
	}
	if !sc.found || proto.Nearer(sc.toward, r, sc.best) {
		sc.best, sc.found = r, true
	}
}

// MemBytes reports the heap the table holds, the shared Scratch excluded.
// The sets off the bus are part of the table's own struct.
func (t *Table) MemBytes() Mem {
	m := Mem{Fixed: int(unsafe.Sizeof(*t)) + cap(t.Bus)*8}
	for i, end := 0, t.walk(); i < end; i++ {
		if s, lvl := t.setAt(i); s != nil {
			if m.Slabs += s.slabBytes(); lvl > 0 {
				m.Fixed += int(unsafe.Sizeof(*s))
			}
		}
	}
	return m
}

// Size returns the total number of entries across all structures (the
// quantity §III.e bounds analytically), counting the parent slot.
func (t *Table) Size() int {
	n := 0
	for i, end := 0, t.walk(); i < end; i++ {
		if s, _ := t.setAt(i); s != nil {
			n += s.Len()
		}
	}
	if t.hasParent {
		n++
	}
	return n
}

// AppendDelta appends to out every entry newer than since across all
// structures, for shipment to a neighbour that last saw version since.
// Entries carry their age at this node (relative to now) so staleness
// accumulates across hops.
func (t *Table) AppendDelta(out []proto.Entry, since uint32, now time.Duration) []proto.Entry {
	for i, end := 0, t.walk(); i < end; i++ {
		if s, lvl := t.setAt(i); s != nil {
			out = s.ChangedSince(since, lvl, now, out)
		}
	}
	if t.hasParent && t.parent.Version > since {
		out = append(out, proto.Entry{
			Ref: t.parent.Ref(), Level: t.parent.MaxLevel, Flags: proto.FParent,
			Version: t.parent.Version, AgeDs: proto.AgeFrom(now, t.parent.LastSeen),
		})
	}
	return out
}

// ParentEntry returns a copy of the parent slot's entry for timestamp
// inspection.
func (t *Table) ParentEntry() (Entry, bool) {
	if !t.hasParent {
		return Entry{}, false
	}
	return t.parent, true
}

// String renders a compact summary for debugging.
func (t *Table) String() string {
	var b strings.Builder
	b.WriteString("rtable{")
	names := []string{"l0", " ch", " nch", " sup"} // the sets off the bus, in walk order
	for i, end := 0, t.walk(); i < end; i++ {
		if s, lvl := t.setAt(i); s != nil {
			if lvl > 0 {
				fmt.Fprintf(&b, " l%d:%d", lvl, s.Len())
				continue
			}
			fmt.Fprintf(&b, "%s:%d", names[0], s.Len())
			names = names[1:]
		}
	}
	if t.hasParent {
		fmt.Fprintf(&b, " parent:%s", t.parent.ID)
	}
	b.WriteString("}")
	return b.String()
}
