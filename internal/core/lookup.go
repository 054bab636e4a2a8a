package core

import (
	"sync"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/routing"
)

// LookupStatus is the origin-side outcome of a lookup.
type LookupStatus uint8

// Lookup outcomes as observed by the origin.
const (
	// LookupFound: a node answered with the target (or its owner).
	LookupFound LookupStatus = iota
	// LookupNotFound: a node on the path dead-ended and said so.
	LookupNotFound
	// LookupTimeout: no reply arrived in time (TTL death, message loss,
	// or a partitioned network).
	LookupTimeout
)

// String implements fmt.Stringer.
func (s LookupStatus) String() string {
	switch s {
	case LookupFound:
		return "found"
	case LookupNotFound:
		return "not-found"
	case LookupTimeout:
		return "timeout"
	}
	return "status(?)"
}

// LookupResult is delivered to the origin's callback.
type LookupResult struct {
	Status LookupStatus
	// Best is the resolved node (valid when Status == LookupFound).
	Best proto.NodeRef
	// Hops is the number of overlay forwards the request took (0 when the
	// origin resolved it locally; meaningless on timeout).
	Hops int
	// Latency is the origin-observed wall/virtual time to resolution.
	Latency time.Duration
}

// Lookup resolves the node responsible for target using the given §III.f
// algorithm and invokes cb exactly once (found, not-found, or timeout).
// It returns the request id of the lookup in flight, or 0 when it ended
// here and cb has already run.
//
// A lookup that leaves this node has one timer. It first fires at the
// retransmission timeout (lookupRTO) and each time it does, the request is
// routed again from here under the same id — tables have moved on since,
// and whichever copy is answered first completes the lookup, the other
// reply finding nothing pending. Only the firing at LookupDeadline reports
// failure to the caller.
func (n *Node) Lookup(target idspace.ID, algo proto.Algo, cb func(LookupResult)) uint64 {
	return n.LookupCarrying(target, algo, nil, cb)
}

// LookupCarrying is Lookup taking the service request carried (nil: none)
// to the owner of target, which serves it as if this node had sent it and
// answers here directly. cb hears of the lookup only when no other node
// took carried: LookupFound with Best this node (carried is the caller's
// to serve), not-found, or timeout. Once the owner's answer is in, the
// caller ends the lookup with EndLookup. carried is read, never changed,
// and must stay valid until the lookup ends: every datagram carries a
// pooled copy of it.
func (n *Node) LookupCarrying(target idspace.ID, algo proto.Algo, carried proto.SvcMessage, cb func(LookupResult)) uint64 {
	n.nextReqID++
	reqID := n.nextReqID
	n.Stats.LookupsStarted++

	req := n.originRequest(target, reqID, algo, carried)
	step := n.route(0, &req)
	// A node whose join is not yet answered has no table to route on: the
	// lookup waits for its first re-issue instead of dead-ending here.
	parked := step.Action == routing.NotFound && n.joining
	switch {
	case step.Action == routing.Deliver:
		n.Stats.LookupsDelivered++
		cb(LookupResult{Status: LookupFound, Best: step.Found})
		return 0
	case step.Action != routing.Forward && !parked:
		n.Stats.LookupsNotFound++
		cb(LookupResult{Status: LookupNotFound})
		return 0
	}

	pl, _ := lookupPool.Get().(*pendingLookup)
	if pl == nil {
		pl = new(pendingLookup)
		pl.fire = pl.onTimer
	}
	pl.node, pl.cb, pl.target, pl.reqID, pl.algo, pl.carried = n, cb, target, reqID, algo, carried
	pl.started, pl.rto = n.env.Now(), n.lookupRTO()
	n.pending.Put(reqID, pl)
	pl.arm()
	if !parked {
		n.forward(0, &req, step, false)
	}
	return reqID
}

// lookupPool holds the origin-side lookup records of every node in the
// process, each with its timer callback bound when it was made.
var lookupPool sync.Pool

// release hands the record back to lookupPool once nothing refers to it
// (out of the pending table, its timer fired or cancelled) and returns the
// callback to answer.
func (pl *pendingLookup) release() func(LookupResult) {
	cb := pl.cb
	pl.node, pl.cb, pl.carried = nil, nil, nil
	lookupPool.Put(pl)
	return cb
}

// EndLookup ends the lookup reqID without answering its callback: the
// owner answered the request it carried. An id no longer pending is
// ignored.
func (n *Node) EndLookup(reqID uint64) {
	if pl := n.takeLookup(reqID); pl != nil {
		pl.release()
	}
}

// originRequest is the request as it leaves (or leaves again) its origin.
func (n *Node) originRequest(target idspace.ID, reqID uint64, algo proto.Algo, carried proto.SvcMessage) proto.LookupRequest {
	return proto.LookupRequest{Origin: n.Ref(), Target: target, ReqID: reqID, TTL: MaxTTL, Algo: algo, Carried: carried}
}

// arm schedules the lookup's next timer firing: one rto from now, or the
// hard timeout if that comes first.
func (pl *pendingLookup) arm() {
	n := pl.node
	wait := pl.started + LookupDeadline - n.env.Now()
	if pl.rto < wait {
		wait = pl.rto
	}
	pl.timer = n.env.SetTimer(wait, pl.fire)
}

// onTimer is the lookup's one timer: a re-issue while the hard timeout is
// still ahead, the failure once it is reached.
func (pl *pendingLookup) onTimer() {
	n := pl.node
	if cur, _ := n.pending.Get(pl.reqID); cur != pl {
		return
	}
	if elapsed := n.env.Now() - pl.started; elapsed >= LookupDeadline {
		n.pending.Delete(pl.reqID)
		pl.release()(LookupResult{Status: LookupTimeout, Hops: int(MaxTTL), Latency: elapsed})
		return
	}
	n.Stats.LookupReissues++
	pl.rto *= 2
	// Arm before routing: the new first step may resolve here and now, and
	// completing the lookup cancels whatever timer it holds.
	pl.arm()
	req := n.originRequest(pl.target, pl.reqID, pl.algo, pl.carried)
	n.advance(0, &req, true)
}

// PendingLookups returns the number of in-flight origin lookups.
func (n *Node) PendingLookups() int { return n.pending.Len() }

// route makes the forwarding decision for m, received from the peer at
// from (0: the request starts, or starts again, here), skipping this
// node's suspects, the peers it has in doubt and, for m alone, the peer m
// names silent (failover.go).
// A request that carries a service request is delivered only where it is
// to be served: resolved to another node, it goes one hop further, to that
// node.
func (n *Node) route(from uint64, m *proto.LookupRequest) routing.Step {
	parent, hasParent := n.table.Parent()
	fromParent := from != 0 && hasParent && parent.Addr == from
	ex := n.sc.excluded[:0]
	if fo := n.fo; fo != nil {
		ex = append(ex, fo.suspects[:fo.suspectN]...)
		for i := range fo.slots {
			if s := &fo.slots[i]; s.peer != 0 && s.req == nil {
				ex = append(ex, s.peer) // hedged: in doubt until the verdict
			}
		}
	}
	if m.Silent != 0 {
		ex = append(ex, m.Silent)
	}
	n.sc.route.Excluded = ex
	step := routing.RouteWith(&n.sc.route, n.Ref(), n.table, m, fromParent, from, n.cfg.Routing)
	if step.Action == routing.Deliver && m.Carried != nil && step.Found.Addr != n.Addr() {
		step.Action, step.Next = routing.Forward, step.Found
	}
	return step
}

func (n *Node) handleLookupRequest(from uint64, m *proto.LookupRequest) {
	if m.AckWanted {
		// The previous hop is holding this request until it hears from us.
		ack := proto.Acquire(proto.TLookupReply).(*proto.LookupReply)
		ack.From, ack.ReqID, ack.Status = n.Ref(), m.ReqID, proto.LookupHopAck
		n.send(from, ack)
	}
	n.advance(from, m, false)
}

// advance takes m one routing decision further: answer its origin (or
// serve what it carries for the origin), hand it to the next hop, or let it
// die. m is read, never kept or changed. reissue marks the origin's
// re-issue, whose forward is always held (hold).
func (n *Node) advance(from uint64, m *proto.LookupRequest, reissue bool) {
	step := n.route(from, m)
	switch step.Action {
	case routing.Deliver:
		n.Stats.LookupsDelivered++
		if m.Carried != nil && m.Origin.Addr != n.Addr() {
			// The origin is the sender, and the owner answers it directly.
			// The origin did not send this datagram: its entry here stays
			// as it was (only first-hand datagrams mint freshness).
			if n.extension != nil {
				n.extension(m.Origin.Addr, m.Carried)
			}
			return
		}
		n.reply(m, proto.LookupFound, step.Found)
	case routing.Forward:
		n.forward(from, m, step, reissue)
	case routing.NotFound:
		n.Stats.LookupsNotFound++
		n.reply(m, proto.LookupNotFound, proto.NodeRef{})
	case routing.Drop:
		// "IF TTL > 255 THEN discard the request" — the origin times out.
		n.Stats.LookupsDropped++
	}
}

// forward sends m on to step.Next. When that peer is not known first-hand
// to be alive, the request as received is held until it shows a sign of
// life (failover.go).
func (n *Node) forward(from uint64, m *proto.LookupRequest, step routing.Step, reissue bool) {
	fwd := proto.Acquire(proto.TLookupRequest).(*proto.LookupRequest)
	*fwd = *m
	fwd.Carried = proto.PooledCopy(m.Carried)
	fwd.TTL--
	fwd.Hops++
	fwd.Alternates = step.Alternates
	fwd.AckWanted = n.hold(from, m, step.Next.Addr, reissue)
	n.Stats.LookupsForwarded++
	if step.Strict {
		n.Stats.LookupsStrict++
	}
	n.send(step.Next.Addr, fwd)
}

// reply delivers a lookup's outcome to the origin — directly over the
// wire, or locally when a wandering request resolved back at its own
// origin (common for key lookups whose owner is the asking node).
func (n *Node) reply(req *proto.LookupRequest, status proto.LookupStatus, best proto.NodeRef) {
	if req.Origin.Addr == n.Addr() {
		n.completeLookup(req.ReqID, status, best, req.Hops)
		return
	}
	rep := proto.Acquire(proto.TLookupReply).(*proto.LookupReply)
	rep.From, rep.ReqID, rep.Status, rep.Best, rep.Hops = n.Ref(), req.ReqID, status, best, req.Hops
	n.send(req.Origin.Addr, rep)
}

func (n *Node) handleLookupReply(from uint64, m *proto.LookupReply) {
	if m.Status == proto.LookupHopAck {
		// A sign of life, already acted on when the datagram came in
		// (HandleMessage releases what was held for its sender). Its ReqID
		// is the forwarded request's, drawn from another origin's counter:
		// it must never reach the pending-lookup match below.
		return
	}
	n.completeLookup(m.ReqID, m.Status, m.Best, m.Hops)
}

// completeLookup hands an origin-side lookup its outcome. Unknown ids are
// duplicate or late replies: the other copy of a re-issued request, or an
// answer that lost the race with the timeout.
func (n *Node) completeLookup(reqID uint64, status proto.LookupStatus, best proto.NodeRef, hops uint8) {
	pl := n.takeLookup(reqID)
	if pl == nil {
		return
	}
	res := LookupResult{Status: LookupNotFound, Hops: int(hops), Latency: n.env.Now() - pl.started}
	if status == proto.LookupFound {
		res.Status, res.Best = LookupFound, best
	}
	pl.release()(res)
}

// takeLookup takes the lookup reqID out of the pending table with its
// timer cancelled, or returns nil for an id no longer pending.
func (n *Node) takeLookup(reqID uint64) *pendingLookup {
	pl, ok := n.pending.Get(reqID)
	if !ok {
		return nil
	}
	n.pending.Delete(reqID)
	pl.timer.Cancel()
	return pl
}
