package scenario

import (
	"fmt"
	"sort"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/routing"
	"treep/internal/simrt"
)

// Violation is one broken-invariant occurrence.
type Violation struct {
	// Checker names the invariant that failed.
	Checker string
	// Detail says where and how.
	Detail string
}

// String implements fmt.Stringer.
func (v Violation) String() string { return v.Checker + ": " + v.Detail }

// Ctx is the shared state of one invariant-checking pass. Checkers are
// read-only and run between simulation events, so every checker in a pass
// sees the same snapshot — which is what lets the pass share one sorted
// alive-list (an O(N log N) sort that previously ran once per checker per
// sample) and the per-walk scratch buffers.
type Ctx struct {
	C *simrt.Cluster
	// Storage is the scenario's storage context (nil without one); the
	// durability checkers read its ledger and services.
	Storage *Storage

	aliveSorted []*core.Node
	ids         []idspace.ID
	cells       []idspace.Region
	chain       []uint64
	walkSeen    map[walkState]bool
	route       routing.Scratch
}

// NewCtx builds a checking context for one pass over the cluster.
func NewCtx(c *simrt.Cluster) *Ctx { return &Ctx{C: c} }

// reset invalidates the snapshot caches for a new pass (the engine reuses
// one Ctx across passes; buffers keep their capacity).
func (x *Ctx) reset(c *simrt.Cluster, st *Storage) {
	x.C = c
	x.Storage = st
	x.aliveSorted = x.aliveSorted[:0]
}

// AliveByID returns the live nodes sorted by coordinate, computed once
// per pass and shared by every checker. Callers must not mutate it.
func (x *Ctx) AliveByID() []*core.Node {
	if len(x.aliveSorted) == 0 {
		x.aliveSorted = append(x.aliveSorted[:0], x.C.AliveNodes()...)
		sort.Slice(x.aliveSorted, func(i, j int) bool {
			return x.aliveSorted[i].ID() < x.aliveSorted[j].ID()
		})
	}
	return x.aliveSorted
}

// Checker examines a live cluster and reports invariant violations. Checks
// are read-only and run between simulation events, so they see a
// consistent snapshot of every routing table.
type Checker struct {
	Name  string
	Check func(*Ctx) []Violation
}

// AllCheckers returns every invariant checker with default settings.
func AllCheckers() []Checker {
	return []Checker{
		RingClosure(),
		RingWalk(),
		TessellationCoverage(),
		ParentChildConsistency(),
		LookupLoopFreedom(32),
	}
}

// RingClosure checks the level-0 chain over the live population: every two
// ID-adjacent live nodes must be linked (at least one knows the other in
// its level-0 table). A break means a region of the space is unreachable
// by ring walking — the fall-back every lookup algorithm ultimately leans
// on (§III.f).
func RingClosure() Checker {
	return Checker{Name: "ring-closure", Check: func(x *Ctx) []Violation {
		alive := x.AliveByID()
		var out []Violation
		for i := 0; i+1 < len(alive); i++ {
			a, b := alive[i], alive[i+1]
			if a.Table().Level0.Get(b.Addr()) == nil && b.Table().Level0.Get(a.Addr()) == nil {
				out = append(out, Violation{
					Checker: "ring-closure",
					Detail:  fmt.Sprintf("gap between %s and %s", a.ID(), b.ID()),
				})
			}
		}
		return out
	}}
}

// RingWalk checks that the level-0 successor chain traverses the whole
// live population: starting from the lowest-ID live node, each step moves
// to the nearest live contact strictly to the walker's right in its own
// level-0 table, and the walk must visit every live node. RingClosure is
// a pairwise oracle — it tolerates a population that is closed pair by
// pair yet globally fractured into interleaved sub-rings, which is
// exactly what two merged islands look like mid-zip. The walk is the
// end-to-end statement that ONE ring emerged.
func RingWalk() Checker {
	return Checker{Name: "ring-walk", Check: func(x *Ctx) []Violation {
		alive := x.AliveByID()
		if len(alive) < 2 {
			return nil
		}
		cur := alive[0]
		visited := 1
		for steps := 1; steps < len(alive); steps++ {
			next := nextAliveRight(x, cur)
			if next == nil {
				break
			}
			cur = next
			visited++
		}
		if visited != len(alive) {
			return []Violation{{
				Checker: "ring-walk",
				Detail: fmt.Sprintf("successor walk visited %d of %d live nodes (stuck after %s)",
					visited, len(alive), cur.ID()),
			}}
		}
		return nil
	}}
}

// nextAliveRight resolves the walker's nearest live level-0 contact
// strictly to its right, or nil. The set is ID-ordered, so the first live
// hit is the nearest; skipping a live node here means the walker does not
// know its true successor and the walk undercounts — the violation.
func nextAliveRight(x *Ctx, cur *core.Node) *core.Node {
	l0 := &cur.Table().Level0
	for i := range l0.Len() {
		r, _ := l0.At(i)
		if r.ID <= cur.ID() {
			continue
		}
		if n := x.C.NodeByAddr(r.Addr); n != nil && x.C.Alive(n) {
			return n
		}
	}
	return nil
}

// TessellationCoverage checks that, at every occupied hierarchy level, the
// cells of the live members jointly cover the whole ID space (§III.a: each
// level tessellates the space). Each member's cell derives from its own
// bus view restricted to peers that really are live members of the level:
// entries for just-demoted or just-dead peers are eventual-consistency
// noise the protocol corrects on its own clock, but *missing* knowledge of
// a co-member shrinks no cell — so any gap means some slice of the space
// has no live responsible node that its neighbours know how to reach.
// Cells may overlap (partial views claim conservatively large cells).
func TessellationCoverage() Checker {
	return Checker{Name: "tessellation-coverage", Check: func(x *Ctx) []Violation {
		alive := x.C.AliveNodes()
		var maxLvl uint8
		for _, n := range alive {
			if n.MaxLevel() > maxLvl {
				maxLvl = n.MaxLevel()
			}
		}
		var out []Violation
		for lvl := uint8(1); lvl <= maxLvl; lvl++ {
			cells := x.cells[:0]
			for _, n := range alive {
				if n.MaxLevel() >= lvl {
					cells = append(cells, memberCell(x, n, lvl))
				}
			}
			x.cells = cells
			if len(cells) == 0 {
				// A vacated level is legal (the hierarchy shrank); coverage
				// is only owed by levels that still have members.
				continue
			}
			sort.Slice(cells, func(i, j int) bool { return cells[i].Lo < cells[j].Lo })
			if cells[0].Lo != 0 {
				out = append(out, Violation{
					Checker: "tessellation-coverage",
					Detail:  fmt.Sprintf("level %d: space before %s uncovered", lvl, cells[0].Lo),
				})
				continue
			}
			covered := cells[0].Hi // highest coordinate covered so far
			gap := false
			for _, cell := range cells[1:] {
				if covered < idspace.MaxID && cell.Lo > covered+1 {
					out = append(out, Violation{
						Checker: "tessellation-coverage",
						Detail:  fmt.Sprintf("level %d: gap (%s, %s)", lvl, covered, cell.Lo),
					})
					gap = true
					break
				}
				if cell.Hi > covered {
					covered = cell.Hi
				}
			}
			if !gap && covered != idspace.MaxID {
				out = append(out, Violation{
					Checker: "tessellation-coverage",
					Detail:  fmt.Sprintf("level %d: space after %s uncovered", lvl, covered),
				})
			}
		}
		return out
	}}
}

// memberCell computes n's tessellation cell at level lvl from its bus
// view restricted to live actual members of the level (§III.a midpoint
// rule; self is always a member).
func memberCell(x *Ctx, n *core.Node, lvl uint8) idspace.Region {
	ids := append(x.ids[:0], n.ID())
	if s := n.Table().BusAt(lvl); s != nil {
		for i := range s.Len() {
			r, _ := s.At(i)
			actual := x.C.NodeByAddr(r.Addr)
			if actual != nil && x.C.Alive(actual) && actual.MaxLevel() >= lvl {
				ids = append(ids, r.ID)
			}
		}
	}
	x.ids = ids
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	self := sort.Search(len(ids), func(i int) bool { return ids[i] >= n.ID() })
	return idspace.FullRegion().CellOf(ids, self)
}

// ParentChildConsistency checks the tree edges over live nodes: a live
// child's parent must be live, must actually list the child, and must sit
// at a strictly higher level; and following parent pointers from any node
// must terminate without cycling (the hierarchy is a forest, never a
// graph with back edges).
func ParentChildConsistency() Checker {
	return Checker{Name: "parent-child", Check: func(x *Ctx) []Violation {
		var out []Violation
		for _, n := range x.C.AliveNodes() {
			p, ok := n.Table().Parent()
			if !ok {
				continue
			}
			pn := x.C.NodeByAddr(p.Addr)
			if pn == nil || !x.C.Alive(pn) {
				out = append(out, Violation{
					Checker: "parent-child",
					Detail:  fmt.Sprintf("%s has dead parent %s", n.ID(), p.ID),
				})
				continue
			}
			if pn.Table().Children.Get(n.Addr()) == nil {
				out = append(out, Violation{
					Checker: "parent-child",
					Detail:  fmt.Sprintf("parent %s does not list child %s", pn.ID(), n.ID()),
				})
			}
			if pn.MaxLevel() < n.MaxLevel()+1 {
				out = append(out, Violation{
					Checker: "parent-child",
					Detail: fmt.Sprintf("parent %s at level %d cannot parent %s at level %d",
						pn.ID(), pn.MaxLevel(), n.ID(), n.MaxLevel()),
				})
			}
			// Walk the parent chain; a chain longer than the height bound
			// has a cycle (or an impossible tower). The chain is at most
			// MaxHeight+2 nodes, so a linear scan replaces the per-node
			// map the old checker allocated.
			chain := append(x.chain[:0], n.Addr())
			cur := pn
			for depth := 0; depth <= int(n.Config().MaxHeight)+1; depth++ {
				seen := false
				for _, a := range chain {
					if a == cur.Addr() {
						seen = true
						break
					}
				}
				if seen {
					out = append(out, Violation{
						Checker: "parent-child",
						Detail:  fmt.Sprintf("parent cycle through %s", cur.ID()),
					})
					break
				}
				chain = append(chain, cur.Addr())
				next, ok := cur.Table().Parent()
				if !ok {
					break
				}
				nn := x.C.NodeByAddr(next.Addr)
				if nn == nil {
					break
				}
				cur = nn
			}
			x.chain = chain
		}
		return out
	}}
}

// walkState is one (node, sender, routing-regime) step of a static
// forwarding walk; revisiting a state means the walk cycles.
type walkState struct {
	node, sender uint64
	regime       routing.Regime
}

// LookupLoopFreedom statically walks the greedy (G) forwarding decision
// over the current routing tables for sampled origin/target pairs and
// flags cycles: a revisited (node, sender) state in the same regime means
// the tables send a request round in a circle.
//
// Since the hop budget such a circle no longer runs until the TTL: the
// request leaves it for the strict regime after HopBudget hops and ends.
// It is still reported. The circle costs every request that enters it up
// to a budget's worth of hops, and what it shows — peers whose tables
// disagree about who is whose parent, a hierarchy that has not come to
// rest (ROADMAP item 2) — is the defect; the budget only bounds the bill.
// What the budget does change is the other violation: a walk that
// exhausts its TTL on a static snapshot is now impossible by construction
// (every strict step moves strictly closer to the target), so a "TTL
// exhausted" detail is a routing bug, not a table inconsistency, and the
// scenario tests assert there is none.
func LookupLoopFreedom(samples int) Checker {
	return Checker{Name: "lookup-loop-freedom", Check: func(x *Ctx) []Violation {
		alive := x.C.AliveNodes()
		if len(alive) < 2 {
			return nil
		}
		rng := x.C.Stream(0x6c6f6f70) // "loop"
		var out []Violation
		for i := 0; i < samples; i++ {
			origin := alive[rng.Intn(len(alive))]
			target := alive[rng.Intn(len(alive))]
			if v, ok := walkForLoop(x, origin, target.ID()); !ok {
				out = append(out, v)
			}
		}
		return out
	}}
}

// walkForLoop walks from origin toward target (Ctx.walk). It returns
// ok=false with a violation when the walk cycles or exhausts the TTL
// (detail "TTL exhausted ..."); termination (delivery, not-found, or a
// dead next hop — a liveness matter, judged by the lookup metrics
// instead) is ok.
func walkForLoop(x *Ctx, origin *core.Node, target idspace.ID) (Violation, bool) {
	var detail string
	switch _, at, end := x.walk(origin, target); end {
	case walkTTL:
		detail = fmt.Sprintf("TTL exhausted from %s to %s", origin.ID(), target)
	case walkCycle:
		detail = fmt.Sprintf("cycle at %s routing %s", at.ID(), target)
	default:
		return Violation{}, true
	}
	return Violation{Checker: "lookup-loop-freedom", Detail: detail}, false
}

// walkEnd is how a static forwarding walk ended.
type walkEnd uint8

const (
	walkDelivered walkEnd = iota // the node it stopped at owns the target
	walkStopped                  // routing neither delivered nor forwarded
	walkDeadHop                  // the next hop is unknown or dead
	walkCycle                    // a walkState came round again
	walkTTL                      // the TTL ran out
)

// walk follows the greedy (G) forwarding decision from origin toward
// target over the current routing tables; no time advances and no message
// is sent. It returns the forwarding steps taken, the node the walk
// stopped at, and how it ended.
func (x *Ctx) walk(origin *core.Node, target idspace.ID) (hops int, at *core.Node, end walkEnd) {
	req := &proto.LookupRequest{
		Origin: origin.Ref(),
		Target: target,
		TTL:    origin.Config().MaxTTL,
		Algo:   proto.AlgoG,
	}
	if x.walkSeen == nil {
		x.walkSeen = make(map[walkState]bool, 64)
	}
	clear(x.walkSeen)
	cur := origin
	var sender uint64
	for ; ; hops++ {
		if req.TTL == 0 {
			return hops, cur, walkTTL
		}
		params := cur.Config().Routing
		st := walkState{cur.Addr(), sender, params.Regime(req.Hops)}
		if x.walkSeen[st] {
			return hops, cur, walkCycle
		}
		x.walkSeen[st] = true
		parent, has := cur.Table().Parent()
		fromParent := sender != 0 && has && parent.Addr == sender
		step := routing.RouteWith(&x.route, cur.Ref(), cur.Table(), req, fromParent, sender, params)
		switch step.Action {
		case routing.Deliver:
			return hops, cur, walkDelivered
		case routing.Forward:
		default:
			return hops, cur, walkStopped
		}
		next := x.C.NodeByAddr(step.Next.Addr)
		if next == nil || !x.C.Alive(next) {
			return hops, cur, walkDeadHop
		}
		fwd := *req
		fwd.TTL--
		fwd.Hops++
		fwd.Alternates = step.Alternates
		req = &fwd
		sender = cur.Addr()
		cur = next
	}
}
