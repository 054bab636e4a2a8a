package routing

import (
	"sort"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// oldRoute is the forwarding decision as it stood before the one-pass
// rewrite, kept as the behavioural oracle of FuzzRouteEquivalence: it
// filters the candidates, sorts them nearest-first and scans the sorted
// list, and each branch rescans the sets it reads. Apart from the
// owner-first rule below, only names changed (and the sort, which any
// correct sort reproduces: the candidates are distinct by address, so the
// comparator is a strict total order on them). It shares
// nothing with RouteWith but the table's sets, FindID, the types and the
// model: it collects and deduplicates the candidates itself, so a change to
// Table.Candidates' rule shows too.
//
// It follows the owner-first rule in its sort-and-scan form: in every
// regime, with no candidate strictly Euclidean-closer to x than self
// (cands[0] no closer) it Delivers self, and a parent-delegated or
// covering (D = 0) node steps to cands[0], as does an escalation that
// finds no child, superior, ring contact or alternate to take.
func oldRoute(ex Excluded, self proto.NodeRef, tbl *rtable.Table, req *proto.LookupRequest, fromParent bool, sender uint64, p Params) Step {
	if req.TTL == 0 {
		return Step{Action: Drop}
	}
	x := req.Target

	if x == self.ID {
		return Step{Action: Deliver, Found: self}
	}
	if ref, ok := tbl.FindID(x); ok {
		return Step{Action: Deliver, Found: ref}
	}

	regime := p.Regime(req.Hops)
	model := func(a proto.NodeRef, b idspace.ID) float64 { return distance(a, b, p.Height, regime) }
	dSelf := model(self, x)

	cands := oldCandidates(tbl)
	filtered := cands[:0]
	for _, c := range cands {
		if c.Addr == sender || c.Addr == self.Addr || ex.has(c.Addr) {
			continue
		}
		filtered = append(filtered, c)
	}
	cands = filtered
	oldByDistance(cands, x)

	if len(cands) == 0 {
		if sender == 0 {
			return oldFinishNGSA(req, p, ex, Step{Action: NotFound})
		}
		return oldFinishNGSA(req, p, ex, Step{Action: Deliver, Found: self})
	}

	if idspace.Dist(cands[0].ID, x) >= idspace.Dist(self.ID, x) {
		return Step{Action: Deliver, Found: self, Strict: regime == StrictProgress}
	}
	if regime == StrictProgress {
		return Step{Action: Forward, Next: cands[0], Alternates: req.Alternates, Strict: true}
	}
	if fromParent {
		return Step{Action: Forward, Next: cands[0], Alternates: req.Alternates}
	}

	switch req.Algo {
	case proto.AlgoNG:
		return oldNG(self, req, model, cands, x, dSelf, tbl, p, sender, ex, false)
	case proto.AlgoNGSA:
		return oldNG(self, req, model, cands, x, dSelf, tbl, p, sender, ex, true)
	default:
		return oldGreedy(self, req, model, cands, x, dSelf, tbl, p, sender, ex)
	}
}

func oldGreedy(self proto.NodeRef, req *proto.LookupRequest, model oldModel, cands []proto.NodeRef, x idspace.ID, dSelf float64, tbl *rtable.Table, p Params, sender uint64, ex Excluded) Step {
	best := cands[0]
	bestD := model(best, x)
	for _, c := range cands[1:] {
		if d := model(c, x); d < bestD {
			best, bestD = c, d
		}
	}
	if bestD < dSelf {
		switch {
		case bestD <= dSelf/2:
			return Step{Action: Forward, Next: best, Alternates: req.Alternates}
		case self.MaxLevel == 0:
			return Step{Action: Forward, Next: best, Alternates: req.Alternates}
		}
	}
	return oldEscalate(self, req, model, cands, x, dSelf, tbl, p, sender, ex, false)
}

func oldNG(self proto.NodeRef, req *proto.LookupRequest, model oldModel, cands []proto.NodeRef, x idspace.ID, dSelf float64, tbl *rtable.Table, p Params, sender uint64, ex Excluded, collectAlternates bool) Step {
	var first proto.NodeRef
	found := false
	var alternates []proto.NodeRef
	for _, c := range cands {
		if model(c, x) < dSelf {
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
		return oldEscalate(self, req, model, cands, x, dSelf, tbl, p, sender, ex, collectAlternates)
	}
	out := req.Alternates
	if collectAlternates {
		out = oldMergeAlternates(req.Alternates, alternates, 8)
	}
	return Step{Action: Forward, Next: first, Alternates: out}
}

func oldEscalate(self proto.NodeRef, req *proto.LookupRequest, model oldModel, cands []proto.NodeRef, x idspace.ID, dSelf float64, tbl *rtable.Table, p Params, sender uint64, ex Excluded, ngsa bool) Step {
	if dSelf == 0 {
		return Step{Action: Forward, Next: cands[0], Alternates: req.Alternates}
	}

	if child, ok := oldNearestChild(tbl, x, ex); ok && child.Addr != self.Addr && child.Addr != sender {
		if idspace.Dist(child.ID, x) < idspace.Dist(self.ID, x) {
			return Step{Action: Forward, Next: child, Alternates: req.Alternates}
		}
	}

	parent, hasParent := tbl.Parent()
	forSup := func(fn func(proto.NodeRef)) {
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
		var best proto.NodeRef
		bestD := dSelf / 2
		found := false
		forSup(func(s proto.NodeRef) {
			if d := model(s, x); d <= bestD {
				best, bestD, found = s, d, true
			}
		})
		if found {
			return Step{Action: Forward, Next: best, Alternates: req.Alternates}
		}
		var top proto.NodeRef
		forSup(func(s proto.NodeRef) {
			if top.IsZero() || s.MaxLevel > top.MaxLevel ||
				(s.MaxLevel == top.MaxLevel && idspace.Dist(s.ID, x) < idspace.Dist(top.ID, x)) {
				top = s
			}
		})
		if !top.IsZero() {
			return Step{Action: Forward, Next: top, Alternates: req.Alternates}
		}
	}

	if step, ok := oldRingWalk(self, req, tbl, x, sender, ex); ok {
		return step
	}

	next := Step{Action: Forward, Next: cands[0], Alternates: req.Alternates}
	if ngsa {
		return oldFinishNGSA(req, p, ex, next)
	}
	return next
}

// oldModel is the distance D the oracle ranks candidates by.
type oldModel func(a proto.NodeRef, b idspace.ID) float64

// euclidean is D outside the hierarchical regime.
func euclidean(a proto.NodeRef, b idspace.ID) float64 { return distance(a, b, 0, Euclidean) }

func oldRingWalk(self proto.NodeRef, req *proto.LookupRequest, tbl *rtable.Table, x idspace.ID, sender uint64, ex Excluded) (Step, bool) {
	dE := idspace.DistF(self.ID, x)
	if best, ok := oldBestImproving(euclidean, tbl.Level0.Refs(), x, dE, sender, self.Addr, ex); ok {
		return Step{Action: Forward, Next: best, Alternates: req.Alternates}, true
	}
	return Step{}, false
}

func oldFinishNGSA(req *proto.LookupRequest, p Params, ex Excluded, dead Step) Step {
	if req.Algo != proto.AlgoNGSA {
		return dead
	}
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

func oldNearestChild(tbl *rtable.Table, x idspace.ID, ex Excluded) (proto.NodeRef, bool) {
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

func oldBestImproving(model oldModel, refs []proto.NodeRef, x idspace.ID, dSelf float64, exclude1, exclude2 uint64, ex Excluded) (proto.NodeRef, bool) {
	var best proto.NodeRef
	bestD := dSelf
	found := false
	for _, r := range refs {
		if r.Addr == exclude1 || r.Addr == exclude2 || ex.has(r.Addr) {
			continue
		}
		if d := model(r, x); d < bestD {
			best, bestD, found = r, d, true
		}
	}
	return best, found
}

func oldMergeAlternates(old, fresh []proto.NodeRef, max int) []proto.NodeRef {
	if len(fresh) == 0 {
		return old
	}
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

// oldCandidates is Table.Candidates as it stood: every ref in walk order
// (Level0, the bus levels ascending, Children, NbrChildren, Superiors, the
// parent), one per address, keeping the highest MaxLevel and the first
// copy among equals.
func oldCandidates(tbl *rtable.Table) []proto.NodeRef {
	var out []proto.NodeRef
	add := func(r proto.NodeRef) {
		for i := range out {
			if out[i].Addr == r.Addr {
				if r.MaxLevel > out[i].MaxLevel {
					out[i] = r
				}
				return
			}
		}
		out = append(out, r)
	}
	sets := []*rtable.Set{&tbl.Level0}
	for i := 1; i < len(tbl.Bus); i++ {
		sets = append(sets, tbl.Bus[i])
	}
	for _, s := range append(sets, &tbl.Children, &tbl.NbrChildren, &tbl.Superiors) {
		if s != nil {
			for _, r := range s.Refs() {
				add(r)
			}
		}
	}
	if p, ok := tbl.Parent(); ok {
		add(p)
	}
	return out
}

// oldByDistance orders refs by Euclidean distance to x, ties by ID then
// address.
func oldByDistance(refs []proto.NodeRef, x idspace.ID) {
	sort.Slice(refs, func(i, j int) bool {
		a, b := refs[i], refs[j]
		da, db := idspace.Dist(a.ID, x), idspace.Dist(b.ID, x)
		switch {
		case da != db:
			return da < db
		case a.ID != b.ID:
			return a.ID < b.ID
		}
		return a.Addr < b.Addr
	})
}
