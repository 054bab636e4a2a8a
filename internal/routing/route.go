package routing

import (
	"slices"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// Action is the outcome of one forwarding decision.
type Action uint8

// Forwarding outcomes.
const (
	// Deliver: the target was resolved at this node (it is this node, or a
	// node in the routing table — "IF target X is in the routing table THEN
	// transmit back the result").
	Deliver Action = iota
	// Forward: send the request to Step.Next.
	Forward
	// NotFound: dead end; reply failure to the origin.
	NotFound
	// Drop: TTL exhausted; discard silently ("IF TTL > 255 THEN discard").
	Drop
)

// String implements fmt.Stringer.
func (a Action) String() string {
	switch a {
	case Deliver:
		return "deliver"
	case Forward:
		return "forward"
	case NotFound:
		return "not-found"
	case Drop:
		return "drop"
	}
	return "action(?)"
}

// Step is one routing decision.
type Step struct {
	Action Action
	// Next is the forwarding destination (Action == Forward).
	Next proto.NodeRef
	// Found is the resolved node (Action == Deliver).
	Found proto.NodeRef
	// Alternates is the updated NGSA fall-back list to carry in the
	// forwarded request.
	Alternates []proto.NodeRef
	// Strict marks a decision taken past the hop budget (Params.HopBudget),
	// where only strict Euclidean progress is allowed.
	Strict bool
}

// Params configures the decision logic.
type Params struct {
	// Model is the hierarchy-aware distance (PaperModel in experiments).
	Model Model
	// Height is the hierarchy height h; above this many hops the request
	// switches to plain Euclidean distance (§III.f: "a request that has a
	// higher TTL means that the network is unstable and/or disrupted").
	Height uint8
}

// maxAlternates caps the NGSA fall-back list ("at the expense of adding
// data to the request").
const maxAlternates = 8

// HopBudget is the number of forwards a request may take under the
// hierarchy's own rules: a climb to the root and a descent from it
// (2·Height), plus a lateral hop at either end. A request past it is in a
// walk the hierarchy has failed to terminate, and from then on only
// strict Euclidean progress is allowed (see RouteWith).
func (p Params) HopBudget() int { return 2*int(p.Height) + 2 }

// Regime is the rule set a request is routed under. Its hop count alone
// decides it, so a static walk that revisits a (node, sender) pair in the
// same regime repeats itself.
type Regime uint8

// Routing regimes, in the order a request passes through them.
const (
	// Hierarchical: the model's tessellation-aware distance (§III.f).
	Hierarchical Regime = iota
	// Euclidean: past Height hops the network is assumed disrupted and
	// plain Euclidean distance gives finer-grained routing (§III.f).
	Euclidean
	// StrictProgress: past HopBudget hops only strict Euclidean progress.
	StrictProgress
)

// Regime returns the regime of a request that has made hops forwards.
func (p Params) Regime(hops uint8) Regime {
	switch {
	case int(hops) > p.HopBudget():
		return StrictProgress
	case hops > p.Height:
		return Euclidean
	}
	return Hierarchical
}

// Scratch holds reusable buffers for the routing decision. An event loop
// (or any single-threaded driver) keeps one Scratch and passes it to
// RouteWith so the per-hop candidate collection allocates nothing. The
// zero value is ready to use.
type Scratch struct {
	cands []proto.NodeRef
	// Excluded lists peers that the next decision treats as absent from
	// the table: the deciding node's next hops that stayed silent when
	// asked for a sign of life. The entries themselves stay where they are
	// (the table's repair paths are not the lookup's business); every
	// branch below skips them. The list is the node's — a scratch shared
	// by a loop's nodes is handed each node's own before it decides — and
	// RouteWith only reads it.
	Excluded Excluded
}

// Excluded is a short list of peer addresses (see Scratch.Excluded).
type Excluded []uint64

func (ex Excluded) has(addr uint64) bool {
	for _, e := range ex {
		if e == addr {
			return true
		}
	}
	return false
}

// RouteWith makes the §III.f forwarding decision for req at the node self
// with routing table tbl, collecting candidates in the caller's scratch so
// the per-message forwarding path allocates nothing.
//
// fromParent reports whether the request arrived from this node's own
// parent: a parent delegating into its tessellation restricts the child to
// a level-0 search and, per Figure 3, the child answers NotFound rather
// than re-escalating when it cannot make progress (preventing up-down
// ping-pong).
//
// sender is the address the request arrived from (0 for locally
// originated); it is excluded from candidates to avoid immediate
// bounce-backs.
func RouteWith(sc *Scratch, self proto.NodeRef, tbl *rtable.Table, req *proto.LookupRequest, fromParent bool, sender uint64, p Params) Step {
	if req.TTL == 0 {
		return Step{Action: Drop}
	}
	x := req.Target

	// Local resolution.
	if x == self.ID {
		return Step{Action: Deliver, Found: self}
	}
	if ref, ok := tbl.FindID(x); ok {
		return Step{Action: Deliver, Found: ref}
	}

	// Distance model: the configured one while the request is within the
	// hierarchy's height, plain Euclidean after.
	regime := p.Regime(req.Hops)
	var model Model = p.Model
	if model == nil || regime != Hierarchical {
		model = EuclideanModel{}
	}
	dSelf := model.D(self, x)

	// Candidate set: every peer in the table, except the sender. Collected
	// once per decision into the scratch buffer; escalate and the
	// ownership checks reuse the same collection.
	cands := tbl.Candidates(sc.cands[:0])
	sc.cands = cands
	filtered := cands[:0]
	ex := sc.Excluded
	for _, c := range cands {
		if c.Addr == sender || c.Addr == self.Addr || ex.has(c.Addr) {
			continue
		}
		filtered = append(filtered, c)
	}
	cands = filtered
	sortByDistanceTo(cands, x)

	if len(cands) == 0 {
		// No candidates. For a locally originated request (sender 0) that
		// means the table is empty: the node is isolated — never joined or
		// fully cut off — and claiming ownership would let writes succeed
		// locally while the rest of the overlay resolves the key elsewhere
		// (acknowledged-but-stranded records). Dead-end instead, so the
		// caller sees the misconfiguration. A remote request whose only
		// table entry is the sender is different: at minimum a two-node
		// overlay, where the owner-resolution rule applies — nothing known
		// is closer, so self is the best owner estimate (without this a
		// two-node DHT cannot store at the remote node). Exact-node
		// lookups are judged by the origin against Best, so a wrong
		// estimate still counts as a miss. NGSA falls back to a carried
		// alternate before either answer.
		if sender == 0 {
			return finishNGSA(req, p, ex, Step{Action: NotFound})
		}
		return finishNGSA(req, p, ex, Step{Action: Deliver, Found: self})
	}

	// Past the hop budget the hierarchy's rules have had their chance: the
	// halving rule, the climb to the highest superior and the parent's
	// delegation can between them send a request round the same few peers
	// until the TTL kills it. From here the only move is to the
	// Euclidean-nearest candidate strictly closer to the target than this
	// node, and when there is none this node is the owner estimate. Every
	// such step shrinks the distance, so the walk cannot revisit a node
	// and ends at a local minimum — on an intact ring, the owner.
	if regime == StrictProgress {
		if next := cands[0]; idspace.Dist(next.ID, x) < idspace.Dist(self.ID, x) {
			return Step{Action: Forward, Next: next, Alternates: req.Alternates, Strict: true}
		}
		return Step{Action: Deliver, Found: self, Strict: true}
	}

	// A request delegated by the own parent searches level 0 only
	// (Figure 3: "IF request from the parent of Level 1 THEN
	// N = Search_Level_Zero()"). The level-0 search is positional, so it
	// runs on plain Euclidean distance; with no lateral or downward
	// progress the answer is Not Found (never back up — that is the
	// ping-pong Figure 3 forbids).
	if fromParent {
		eu := EuclideanModel{}
		dE := idspace.DistF(self.ID, x)
		if best, ok := bestImproving(eu, tbl.Level0.Refs(), x, dE, sender, self.Addr, ex); ok {
			return Step{Action: Forward, Next: best, Alternates: req.Alternates}
		}
		if child, ok := nearestChild(tbl, x, ex); ok && child.Addr != self.Addr && child.Addr != sender {
			if idspace.Dist(child.ID, x) < idspace.Dist(self.ID, x) {
				return Step{Action: Forward, Next: child, Alternates: req.Alternates}
			}
		}
		// Owner resolution in the restricted search: the owner of a
		// coordinate is the positionally nearest node, so only ring and
		// child competitors matter here. If neither is closer, we own it.
		closer := false
		for _, r := range tbl.Level0.Refs() {
			if r.Addr != sender && r.Addr != self.Addr && !ex.has(r.Addr) && idspace.Dist(r.ID, x) < idspace.Dist(self.ID, x) {
				closer = true
				break
			}
		}
		if !closer {
			for _, r := range tbl.Children.Refs() {
				if r.Addr != sender && r.Addr != self.Addr && !ex.has(r.Addr) && idspace.Dist(r.ID, x) < idspace.Dist(self.ID, x) {
					closer = true
					break
				}
			}
		}
		if !closer {
			return Step{Action: Deliver, Found: self}
		}
		// "IF Request from parent of level 1 THEN Reply Not Found".
		return finishNGSA(req, p, ex, Step{Action: NotFound})
	}

	switch req.Algo {
	case proto.AlgoNG:
		return routeNG(self, req, model, cands, x, dSelf, tbl, p, sender, ex, false)
	case proto.AlgoNGSA:
		return routeNG(self, req, model, cands, x, dSelf, tbl, p, sender, ex, true)
	default:
		return routeGreedy(self, req, model, cands, x, dSelf, tbl, p, sender, ex)
	}
}

// routeGreedy is algorithm G: pick the candidate minimising D, forward when
// the halving rule D(n,x) ≤ ½·D(a,x) holds or the node is at level 0;
// otherwise escalate through children/superiors.
func routeGreedy(self proto.NodeRef, req *proto.LookupRequest, model Model, cands []proto.NodeRef, x idspace.ID, dSelf float64, tbl *rtable.Table, p Params, sender uint64, ex Excluded) Step {
	best := cands[0]
	bestD := model.D(best, x)
	for _, c := range cands[1:] {
		if d := model.D(c, x); d < bestD {
			best, bestD = c, d
		}
	}
	if bestD < dSelf {
		switch {
		case bestD <= dSelf/2:
			// The halving-distance jump of Figure 4.
			return Step{Action: Forward, Next: best, Alternates: req.Alternates}
		case self.MaxLevel == 0:
			// "ELSE IF Level_A == 0 THEN forward the request to N":
			// level-0 progress is linear, not geometric.
			return Step{Action: Forward, Next: best, Alternates: req.Alternates}
		}
	}
	return escalate(self, req, model, cands, x, dSelf, tbl, p, sender, ex, false)
}

// routeNG is algorithms NG and NGSA: take the first candidate strictly
// closer to the target ("the procedure basically ends when a node
// satisfying the condition is found"); NGSA additionally accumulates the
// remaining improving candidates as fall-back alternates.
func routeNG(self proto.NodeRef, req *proto.LookupRequest, model Model, cands []proto.NodeRef, x idspace.ID, dSelf float64, tbl *rtable.Table, p Params, sender uint64, ex Excluded, collectAlternates bool) Step {
	var first proto.NodeRef
	found := false
	var alternates []proto.NodeRef
	for _, c := range cands {
		if model.D(c, x) < dSelf {
			if !found {
				first, found = c, true
				continue
			}
			if collectAlternates {
				alternates = append(alternates, c)
			}
		}
	}
	if !found {
		return escalate(self, req, model, cands, x, dSelf, tbl, p, sender, ex, collectAlternates)
	}
	out := req.Alternates
	if collectAlternates {
		out = mergeAlternates(req.Alternates, alternates, maxAlternates)
	}
	return Step{Action: Forward, Next: first, Alternates: out}
}

// escalate handles the no-progress cases of Figure 3: descend to the
// closest improving child, walk the level-0 ring when this node's own
// tessellation already covers the target, else climb via the superior node
// list (closest member satisfying the halving rule, else the highest-level
// member), else — for NGSA — fall back to an alternate carried in the
// request, else give up.
func escalate(self proto.NodeRef, req *proto.LookupRequest, model Model, cands []proto.NodeRef, x idspace.ID, dSelf float64, tbl *rtable.Table, p Params, sender uint64, ex Excluded, ngsa bool) Step {
	// Lateral hand-off: when this node's coverage makes D = 0 it believes
	// it owns the target — but the coverage radius is an approximation,
	// and the true owner of a 1-D tessellation is the *nearest* member.
	// A known same-or-higher-level member strictly Euclidean-closer to
	// the target owns it; descending into our own subtree instead would
	// orbit the request (parent → child → ring → parent) until the TTL
	// kills it.
	if dSelf == 0 {
		dE := idspace.Dist(self.ID, x)
		var lateral proto.NodeRef
		bestD := dE
		for _, c := range cands {
			if c.MaxLevel < self.MaxLevel {
				continue
			}
			if d := idspace.Dist(c.ID, x); d < bestD {
				lateral, bestD = c, d
			}
		}
		if !lateral.IsZero() {
			return Step{Action: Forward, Next: lateral, Alternates: req.Alternates}
		}
	}

	// Descend: "N = Closest_Child(X)". The child needs no model-distance
	// improvement (a parent covering the target has D = 0, which nothing
	// improves on); strict Euclidean progress is required instead, so a
	// parent/child pair cannot ping-pong.
	if child, ok := nearestChild(tbl, x, ex); ok && child.Addr != self.Addr && child.Addr != sender {
		if idspace.Dist(child.ID, x) < idspace.Dist(self.ID, x) {
			return Step{Action: Forward, Next: child, Alternates: req.Alternates}
		}
	}

	// Covering node with no useful child: the target's owner sits on the
	// level-0 ring nearby; walk it by Euclidean progress. Climbing would
	// only bounce the request back down.
	if dSelf == 0 {
		if step, ok := ringWalk(self, req, tbl, x, sender, ex); ok {
			return step
		}
	}

	// Owner resolution: the owner of a coordinate in a 1-D tessellation is
	// the nearest node. Descent, lateral hand-off and the ring walk (all
	// requiring strict Euclidean progress) have failed — if nothing we know
	// is strictly closer to x than we are, we are the best owner estimate.
	// This is what lets the lookup "search for an object associated with
	// ID ... used for resource discovery" (§III.f): object keys hash
	// between node IDs and terminate here. Exact-node lookups are
	// unaffected — while the target is alive and reachable, someone
	// strictly closer is always known until the request stands on it.
	if !anyCloser(cands, self, x) {
		return Step{Action: Deliver, Found: self}
	}

	// Climb: superiors = superior node list plus the immediate parent.
	// Walked in place (refs slice + parent slot) rather than materialised:
	// this path runs once per escalating hop.
	parent, hasParent := tbl.Parent()
	eachSup := func(fn func(proto.NodeRef)) {
		for _, s := range tbl.Superiors.Refs() {
			if s.Addr != self.Addr && s.Addr != sender && !ex.has(s.Addr) {
				fn(s)
			}
		}
		if hasParent && parent.Addr != self.Addr && parent.Addr != sender && !ex.has(parent.Addr) {
			fn(parent)
		}
	}
	{
		// "forward the request to the Node that is the closest to X
		// satisfying D(n,x) ≤ ½·D(a,x)".
		var best proto.NodeRef
		bestD := dSelf / 2
		found := false
		eachSup(func(s proto.NodeRef) {
			if d := model.D(s, x); d <= bestD {
				best, bestD, found = s, d, true
			}
		})
		if found {
			return Step{Action: Forward, Next: best, Alternates: req.Alternates}
		}
		// "IF none match the criteria THEN send the request to the
		// superior node with the highest level."
		var top proto.NodeRef
		eachSup(func(s proto.NodeRef) {
			if top.IsZero() || s.MaxLevel > top.MaxLevel ||
				(s.MaxLevel == top.MaxLevel && idspace.Dist(s.ID, x) < idspace.Dist(top.ID, x)) {
				top = s
			}
		})
		if !top.IsZero() {
			return Step{Action: Forward, Next: top, Alternates: req.Alternates}
		}
	}

	// Last resort before giving up: degrade to a level-0 ring walk. The
	// ring guarantees strict Euclidean progress while it is intact, so a
	// reachable target is eventually found within the TTL — the linear
	// cost only bites in the heavily damaged regimes where the paper
	// itself falls back to Euclidean routing.
	if step, ok := ringWalk(self, req, tbl, x, sender, ex); ok {
		return step
	}

	if ngsa {
		return finishNGSA(req, p, ex, Step{Action: NotFound})
	}
	return Step{Action: NotFound}
}

// anyCloser reports whether any candidate is strictly Euclidean-closer to
// x than self. cands is already sender- and self-filtered.
func anyCloser(cands []proto.NodeRef, self proto.NodeRef, x idspace.ID) bool {
	for _, c := range cands {
		if idspace.Dist(c.ID, x) < idspace.Dist(self.ID, x) {
			return true
		}
	}
	return false
}

// ringWalk forwards to the level-0 contact that makes the best strict
// Euclidean progress toward x, if any.
func ringWalk(self proto.NodeRef, req *proto.LookupRequest, tbl *rtable.Table, x idspace.ID, sender uint64, ex Excluded) (Step, bool) {
	dE := idspace.DistF(self.ID, x)
	if best, ok := bestImproving(EuclideanModel{}, tbl.Level0.Refs(), x, dE, sender, self.Addr, ex); ok {
		return Step{Action: Forward, Next: best, Alternates: req.Alternates}, true
	}
	return Step{}, false
}

// finishNGSA converts a dead end into a jump to the nearest carried
// alternate when the request has any (the "fall back" of NGSA). An
// excluded alternate is no fall-back: it stays in the list for the next
// hop to judge.
func finishNGSA(req *proto.LookupRequest, p Params, ex Excluded, dead Step) Step {
	if req.Algo != proto.AlgoNGSA {
		return dead
	}
	// Pop the alternate nearest to the target.
	bestIdx := -1
	var bestD uint64
	for i, a := range req.Alternates {
		if ex.has(a.Addr) {
			continue
		}
		if d := idspace.Dist(a.ID, req.Target); bestIdx < 0 || d < bestD {
			bestIdx, bestD = i, d
		}
	}
	if bestIdx < 0 {
		return dead
	}
	next := req.Alternates[bestIdx]
	rest := make([]proto.NodeRef, 0, len(req.Alternates)-1)
	rest = append(rest, req.Alternates[:bestIdx]...)
	rest = append(rest, req.Alternates[bestIdx+1:]...)
	return Step{Action: Forward, Next: next, Alternates: rest}
}

// nearestChild is tbl.Children.Nearest(x) over the children that are not
// excluded (same scan, same ties: the lowest ID among the equidistant).
func nearestChild(tbl *rtable.Table, x idspace.ID, ex Excluded) (proto.NodeRef, bool) {
	var best proto.NodeRef
	var bestD uint64
	found := false
	for _, r := range tbl.Children.Refs() {
		if ex.has(r.Addr) {
			continue
		}
		if d := idspace.Dist(r.ID, x); !found || d < bestD {
			best, bestD, found = r, d, true
		}
	}
	return best, found
}

// bestImproving returns the ref in refs (excluding two addresses and the
// excluded peers) that minimises D and strictly improves on dSelf.
func bestImproving(model Model, refs []proto.NodeRef, x idspace.ID, dSelf float64, exclude1, exclude2 uint64, ex Excluded) (proto.NodeRef, bool) {
	var best proto.NodeRef
	bestD := dSelf
	found := false
	for _, r := range refs {
		if r.Addr == exclude1 || r.Addr == exclude2 || ex.has(r.Addr) {
			continue
		}
		if d := model.D(r, x); d < bestD {
			best, bestD, found = r, d, true
		}
	}
	return best, found
}

// mergeAlternates unions old and fresh alternates (deduplicated by
// address), keeping the ones nearest to nothing in particular — insertion
// order, truncated to max. Order suffices because finishNGSA re-ranks by
// distance when popping.
func mergeAlternates(old, fresh []proto.NodeRef, max int) []proto.NodeRef {
	if len(fresh) == 0 {
		return old
	}
	// Linear-scan dedup: the list is capped at max (maxAlternates), so a map
	// here costs two allocations per NGSA hop for no win. The result
	// still allocates — it escapes into the forwarded request.
	out := make([]proto.NodeRef, 0, len(old)+len(fresh))
	appendDedup := func(r proto.NodeRef) {
		for i := range out {
			if out[i].Addr == r.Addr {
				return
			}
		}
		out = append(out, r)
	}
	for _, r := range old {
		appendDedup(r)
	}
	for _, r := range fresh {
		appendDedup(r)
	}
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// sortByDistanceTo orders refs by Euclidean distance to x (ties by ID then
// address) so that candidate iteration is deterministic and NG's "first
// improving" choice is the nearest improving. slices.SortFunc rather than
// sort.Slice: the latter builds a reflection-based swapper per call, and
// this runs on every lookup hop.
func sortByDistanceTo(refs []proto.NodeRef, x idspace.ID) {
	slices.SortFunc(refs, func(a, b proto.NodeRef) int {
		da, db := idspace.Dist(a.ID, x), idspace.Dist(b.ID, x)
		switch {
		case da != db:
			if da < db {
				return -1
			}
			return 1
		case a.ID != b.ID:
			if a.ID < b.ID {
				return -1
			}
			return 1
		case a.Addr < b.Addr:
			return -1
		case a.Addr > b.Addr:
			return 1
		}
		return 0
	})
}
