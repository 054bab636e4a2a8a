package routing

import (
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
	// Height is the hierarchy height h of the distance D (§III.f); above
	// this many hops the request switches to plain Euclidean distance
	// (§III.f: "a request that has a higher TTL means that the network is
	// unstable and/or disrupted").
	Height uint8
}

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
	// Hierarchical: the tessellation-aware distance D (§III.f).
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
	skip  Excluded // the sender, self, then Excluded: who the decision treats as absent
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

// decision is one RouteWith call: its inputs, and what one pass over the
// candidates takes for the branches to read. Every "nearest" below is
// first in the nearest-first order to x (proto.Nearer), and every value
// is what the first such candidate of a list sorted in that order would
// be; no list is sorted.
type decision struct {
	self   proto.NodeRef
	req    *proto.LookupRequest
	tbl    *rtable.Table
	x      idspace.ID
	height uint8   // the hierarchy height h of D
	regime Regime  // D is Euclidean outside Hierarchical
	dSelf  float64 // D(self, x)
	dE     uint64  // Euclidean distance from self to x
	sender uint64
	skip   Excluded // sender, self, then ex
	ex     Excluded

	nearest   proto.NodeRef // the nearest candidate: the owner check and every step to the nearest
	modelMin  proto.NodeRef // G: the model minimum, nearest among ties
	modelMinD float64
	// improving holds the nImproving nearest candidates whose model
	// distance improves on dSelf, nearest first: NG's next hop and NGSA's
	// fresh alternates.
	improving  [proto.MaxAlternates + 1]proto.NodeRef
	nImproving int
}

// take folds one candidate, at model distance dc, into every value a
// branch reads. limit bounds improving: NG reads the first, NGSA the first
// and MaxAlternates more.
func (d *decision) take(c proto.NodeRef, dc float64, limit int) {
	x := d.x
	if d.nearest.IsZero() || proto.Nearer(x, c, d.nearest) {
		d.nearest = c
	}
	if d.modelMin.IsZero() || dc < d.modelMinD || dc == d.modelMinD && proto.Nearer(x, c, d.modelMin) {
		d.modelMin, d.modelMinD = c, dc
	}
	if dc < d.dSelf && (d.nImproving < limit || proto.Nearer(x, c, d.improving[limit-1])) {
		i := min(d.nImproving, limit-1) // a full list drops its last
		for ; i > 0 && proto.Nearer(x, c, d.improving[i-1]); i-- {
			d.improving[i] = d.improving[i-1]
		}
		d.improving[i] = c
		d.nImproving = min(d.nImproving+1, limit)
	}
}

// dist is D(c, x) in the decision's regime.
func (d *decision) dist(c proto.NodeRef) float64 { return distance(c, d.x, d.height, d.regime) }

// forward is a Forward step to next carrying the request's alternates.
func (d *decision) forward(next proto.NodeRef) Step {
	return Step{Action: Forward, Next: next, Alternates: d.req.Alternates}
}

// RouteWith makes the §III.f forwarding decision for req at the node self
// with routing table tbl, collecting candidates in the caller's scratch so
// the per-message forwarding path allocates nothing.
//
// fromParent reports whether the request arrived from this node's own
// parent, which has delegated it into its tessellation: the child takes
// one step to the nearest node it knows rather than re-escalating (the
// up-down ping-pong Figure 3 forbids).
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

	// Distance: the hierarchy's while the request is within its height,
	// plain Euclidean after.
	regime := p.Regime(req.Hops)
	sc.skip = append(append(sc.skip[:0], sender, self.Addr), sc.Excluded...)
	d := decision{self: self, req: req, tbl: tbl, x: x, height: p.Height, regime: regime,
		dE: idspace.Dist(self.ID, x), sender: sender, skip: sc.skip, ex: sc.skip[2:]}
	d.dSelf = d.dist(self)

	// Candidate set: every peer in the table, except the sender, self and
	// the excluded, collected once per decision into the scratch buffer
	// and read in one pass.
	limit := 1
	if req.Algo == proto.AlgoNGSA {
		limit = len(d.improving)
	}
	sc.cands = tbl.Candidates(sc.cands[:0])
	for _, c := range sc.cands {
		if !d.skip.has(c.Addr) {
			d.take(c, d.dist(c), limit)
		}
	}

	if d.nearest.IsZero() {
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
			return finishNGSA(req, d.ex, Step{Action: NotFound})
		}
		return finishNGSA(req, d.ex, Step{Action: Deliver, Found: self})
	}

	// Owner first: the owner of a coordinate in a 1-D tessellation is the
	// nearest node, so when nothing known is strictly Euclidean-closer to x
	// than this node, this node is the best owner estimate, in every
	// regime. This is what lets the lookup "search for an object associated
	// with ID ... used for resource discovery" (§III.f): object keys hash
	// between node IDs and stop here, where the hierarchy would send them
	// up to a covering node and back down. Exact-node lookups are
	// unaffected — while the target is alive and reachable, someone
	// strictly closer is always known until the request stands on it.
	if idspace.Dist(d.nearest.ID, x) >= d.dE {
		return Step{Action: Deliver, Found: self, Strict: regime == StrictProgress}
	}

	// Past the hop budget the hierarchy's rules have had their chance: the
	// halving rule, the climb to the highest superior and the parent's
	// delegation can between them send a request round the same few peers
	// until the TTL kills it. From here the only move is to the
	// Euclidean-nearest candidate, strictly closer than this node by the
	// owner check. Every such step shrinks the distance, so the walk cannot
	// revisit a node and ends at a local minimum — on an intact ring, the
	// owner.
	if regime == StrictProgress {
		return Step{Action: Forward, Next: d.nearest, Alternates: req.Alternates, Strict: true}
	}

	// Figure 3: "IF request from the parent of Level 1 THEN N =
	// Search_Level_Zero()", searched here over every set.
	if fromParent {
		return d.forward(d.nearest)
	}
	if req.Algo == proto.AlgoNG || req.Algo == proto.AlgoNGSA {
		return d.nonGreedy()
	}
	return d.greedy()
}

// greedy is algorithm G: take the candidate minimising D, forward when the
// halving rule D(n,x) ≤ ½·D(a,x) holds or the node is at level 0;
// otherwise escalate through children/superiors.
func (d *decision) greedy() Step {
	if d.modelMinD < d.dSelf {
		switch {
		case d.modelMinD <= d.dSelf/2:
			// The halving-distance jump of Figure 4.
			return d.forward(d.modelMin)
		case d.self.MaxLevel == 0:
			// "ELSE IF Level_A == 0 THEN forward the request to N":
			// level-0 progress is linear, not geometric.
			return d.forward(d.modelMin)
		}
	}
	return d.escalate()
}

// nonGreedy is algorithms NG and NGSA: take the nearest candidate strictly
// closer to the target under D ("the procedure basically ends when a node
// satisfying the condition is found"); NGSA additionally carries the next
// improving candidates as fall-back alternates.
func (d *decision) nonGreedy() Step {
	if d.nImproving == 0 {
		return d.escalate()
	}
	step := d.forward(d.improving[0])
	if d.req.Algo == proto.AlgoNGSA {
		step.Alternates = mergeAlternates(d.req.Alternates, d.improving[1:d.nImproving], proto.MaxAlternates)
	}
	return step
}

// escalate handles the no-progress cases of Figure 3: when this node's own
// tessellation covers the target, step to the nearest known node; else
// descend to the closest improving child, else climb via the superior node
// list (closest member satisfying the halving rule, else the highest-level
// member), else walk the level-0 ring, else — for NGSA — fall back to an
// alternate carried in the request, else step to the nearest known node.
func (d *decision) escalate() Step {
	// Covering node (D = 0): the target is in this node's region, and the
	// owner check has already found a known node strictly Euclidean-closer
	// to it. Step there; descending into our own subtree or climbing would
	// only orbit the request back.
	if d.dSelf == 0 {
		return d.forward(d.nearest)
	}

	if step, ok := d.descend(); ok {
		return step
	}

	// Climb: the superior node list, then the immediate parent, read in
	// place in one loop. It takes the closest member satisfying the
	// halving rule ("forward the request to the Node that is the closest
	// to X satisfying D(n,x) ≤ ½·D(a,x)", the later of equals) and the
	// highest-level member ("IF none match the criteria THEN send the
	// request to the superior node with the highest level", the nearer of
	// equals, then the earlier).
	sups := &d.tbl.Superiors
	parent, hasParent := d.tbl.Parent()
	n := sups.Len()
	if hasParent {
		n++
	}
	var best, top proto.NodeRef
	bestD := d.dSelf / 2
	for i := 0; i < n; i++ {
		s := parent
		if i < sups.Len() {
			s, _ = sups.At(i)
		}
		if d.skip.has(s.Addr) {
			continue
		}
		if ds := d.dist(s); ds <= bestD {
			best, bestD = s, ds
		}
		if top.IsZero() || s.MaxLevel > top.MaxLevel ||
			(s.MaxLevel == top.MaxLevel && idspace.Dist(s.ID, d.x) < idspace.Dist(top.ID, d.x)) {
			top = s
		}
	}
	if !best.IsZero() {
		return d.forward(best)
	}
	if !top.IsZero() {
		return d.forward(top)
	}

	// Last resort before giving up: degrade to a level-0 ring walk. The
	// ring guarantees strict Euclidean progress while it is intact, so a
	// reachable target is eventually found within the TTL — the linear
	// cost only bites in the heavily damaged regimes where the paper
	// itself falls back to Euclidean routing.
	if step, ok := d.ringWalk(); ok {
		return step
	}
	// No dead end: the owner check found a known node strictly
	// Euclidean-closer to x than this one.
	return finishNGSA(d.req, d.ex, d.forward(d.nearest))
}

// descend is "N = Closest_Child(X)": the nearest child that is not
// excluded, taken when it is neither self nor the sender and is strictly
// Euclidean-closer. The child needs no model-distance improvement (a
// parent covering the target has D = 0, which nothing improves on); strict
// Euclidean progress is required instead, so a parent/child pair cannot
// ping-pong.
func (d *decision) descend() (Step, bool) {
	child, ok := d.tbl.Children.Nearest(d.x, d.ex)
	if ok && child.Addr != d.self.Addr && child.Addr != d.sender && idspace.Dist(child.ID, d.x) < d.dE {
		return d.forward(child), true
	}
	return Step{}, false
}

// ringWalk forwards to the level-0 contact that makes the best strict
// Euclidean progress toward x, if any: the minimum in float64, as the
// model compares, and the first in ID order among equals.
func (d *decision) ringWalk() (Step, bool) {
	var best proto.NodeRef
	bestD := idspace.DistF(d.self.ID, d.x)
	found := false
	for i := range d.tbl.Level0.Len() {
		r, _ := d.tbl.Level0.At(i)
		if d.skip.has(r.Addr) {
			continue
		}
		if dr := idspace.DistF(r.ID, d.x); dr < bestD {
			best, bestD, found = r, dr, true
		}
	}
	if found {
		return d.forward(best), true
	}
	return Step{}, false
}

// finishNGSA converts a dead end into a jump to the nearest carried
// alternate when the request has any (the "fall back" of NGSA). An
// excluded alternate is no fall-back: it stays in the list for the next
// hop to judge.
func finishNGSA(req *proto.LookupRequest, ex Excluded, dead Step) Step {
	if req.Algo != proto.AlgoNGSA {
		return dead
	}
	// Pop the alternate nearest to the target, the first of equals.
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

// mergeAlternates unions old and fresh alternates (deduplicated by
// address), old first, truncated to max. Order suffices because
// finishNGSA re-ranks by distance when popping.
func mergeAlternates(old, fresh []proto.NodeRef, max int) []proto.NodeRef {
	if len(fresh) == 0 {
		return old
	}
	// Linear-scan dedup: the list is capped at max (proto.MaxAlternates),
	// so a map here costs two allocations per NGSA hop for no win. The
	// result still allocates — it escapes into the forwarded request.
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
