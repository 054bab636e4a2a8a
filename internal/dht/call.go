package dht

import (
	"sync"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
)

// The store's request plumbing: request ids, the pending-call table,
// per-attempt deadlines and retries, on core.Node's extension slot.

// call is one in-flight request: a direct one (callPeer) to a known address,
// or a keyed one (callOwner), each attempt of which rides the owner lookup
// of its key. It is in the pending table from start to answer. Its
// callbacks are bound once, when the record is made: fire, the one timer
// (an attempt's deadline, or a keyed call's backoff), resolved, the
// lookup's report, and local, a local owner's answer. Records come from
// callPool and go back to it when the caller is answered.
type call struct {
	s       *Service
	id, to  uint64 // to is 0 for a keyed call
	key     idspace.ID
	lookup  uint64 // the node's lookup carrying a keyed attempt, 0 when none is
	req     proto.SvcMessage
	timeout time.Duration
	retries int
	timer   core.Timer
	cb      func(proto.SvcMessage, error)

	fire     func()
	resolved func(core.LookupResult)
	local    func(proto.SvcMessage, error)
}

// responder answers one served request: a remote one by datagram to its
// sender, a local one through the local caller's callback. Its respond is
// bound once; records come from responderPool and go back once respond
// has run.
type responder struct {
	s       *Service
	id, to  uint64
	local   func(proto.SvcMessage, error)
	respond func(proto.SvcMessage)
}

// The record pools are process-wide, like proto's message pools: shard
// workers take and return records concurrently, and a peer holds no
// records of its own between operations.
var callPool, responderPool sync.Pool

// callPeer sends req to a known peer and calls cb exactly once with the
// response or ErrTimeout, after retries re-sends each given timeout to
// answer. The request id is assigned here; a re-send carries the same id,
// so duplicate responses are absorbed by the pending-table delete and the
// receiver can deduplicate a re-applied request.
func (s *Service) callPeer(to uint64, req proto.SvcMessage, timeout time.Duration, retries int,
	cb func(proto.SvcMessage, error)) {
	c := s.newCall(req, timeout, retries, cb)
	c.to = to
	c.attempt()
}

// callOwner sends req to the overlay owner of key in one routed exchange:
// req rides the §III.f lookup of key, the owner serves it as if this node
// had sent it, and its response comes straight back. Each attempt is one
// lookup, re-issued along the way as lookups are; one that fails (not
// found, or nothing back by the lookup timeout) consumes one of
// requestRetries after a backoff of half requestTimeout — mid-churn
// failures are transient (the overlay repairs on its keep-alive cadence)
// and an immediate re-lookup would hit the same stale tables.
func (s *Service) callOwner(key idspace.ID, req proto.SvcMessage, cb func(proto.SvcMessage, error)) {
	c := s.newCall(req, requestTimeout, requestRetries, cb)
	c.key = key
	c.route()
}

// newCall stamps req with the next request id and the sender, once for the
// whole call — every attempt, even one a re-resolved owner serves, carries
// it, so a receiver that already applied the request replays its recorded
// answer instead of re-applying — and starts the call on a pooled record in
// the pending table.
func (s *Service) newCall(req proto.SvcMessage, timeout time.Duration, retries int,
	cb func(proto.SvcMessage, error)) *call {
	s.nextID++
	req.SetSvc(s.nextID, s.node.Ref())
	c, _ := callPool.Get().(*call)
	if c == nil {
		c = new(call)
		c.fire, c.resolved, c.local = c.onTimer, c.onLookup, c.finish
	}
	c.s, c.id, c.req, c.timeout, c.retries, c.cb = s, s.nextID, req, timeout, retries, cb
	s.pending.Put(c.id, c)
	return c
}

// attempt arms the deadline of one attempt of a direct call and sends the
// request. What goes out is a pooled copy for the network to recycle, never
// c.req itself: the call sends it again on a retry, and its owner may reuse
// it once the call is answered while a datagram is still in flight.
func (c *call) attempt() {
	c.timer = c.s.node.SetTimer(c.timeout, c.fire)
	c.s.node.Send(c.to, proto.PooledCopy(c.req))
}

// route starts one attempt of a keyed call: the owner lookup carrying req.
// A lookup that ended here has reported to onLookup before it returns, and
// the call may be answered and its record reused: only a lookup in flight
// is noted.
func (c *call) route() {
	if id := c.s.node.LookupCarrying(c.key, proto.AlgoG, c.req, c.resolved); id != 0 {
		c.lookup = id
	}
}

// onLookup hears of a keyed attempt the lookup ended without a remote
// owner's answer: the owner is this node, or the attempt failed.
func (c *call) onLookup(r core.LookupResult) {
	c.lookup = 0
	switch {
	case r.Status == core.LookupFound:
		c.s.serve(c.s.node.Addr(), c.req, c.local)
	case c.retry():
		c.timer = c.s.node.SetTimer(c.timeout/2, c.fire)
	case r.Status == core.LookupTimeout:
		c.finish(nil, ErrTimeout)
	default:
		c.finish(nil, ErrLookupFailed)
	}
}

// onTimer is the call's one timer: for a keyed call the end of a backoff,
// for a direct one an attempt's deadline, which sends the next attempt or
// answers ErrTimeout.
func (c *call) onTimer() {
	if cur, _ := c.s.pending.Get(c.id); cur != c {
		return
	}
	switch {
	case c.to == 0:
		c.route()
	case c.retry():
		c.attempt()
	default:
		c.finish(nil, ErrTimeout)
	}
}

// retry spends one retry, reporting whether there was one left.
func (c *call) retry() bool {
	if c.retries == 0 {
		return false
	}
	c.retries--
	c.s.Stats.Retries++
	return true
}

// finish ends the call — its timer, and the lookup carrying it if one is in
// flight — hands the record back to callPool and answers the caller.
func (c *call) finish(resp proto.SvcMessage, err error) {
	s, cb := c.s, c.cb
	c.timer.Cancel()
	if c.lookup != 0 {
		s.node.EndLookup(c.lookup)
	}
	s.pending.Delete(c.id)
	if s.pending.Len() == 0 {
		s.pending.Release() // a service between calls holds no slabs
	}
	c.recycle()
	cb(resp, err)
}

// recycle hands the record back to callPool, its bound callbacks kept.
func (c *call) recycle() {
	*c = call{fire: c.fire, resolved: c.resolved, local: c.local}
	callPool.Put(c)
}

// abandon frees every pending call without answering it, once the node
// has stopped. The node ended the lookups carrying them without a report,
// and a caller whose origin stopped is owed no answer: the operation is
// abandoned, not failed.
func (s *Service) abandon() {
	for _, id := range s.pending.Keys() {
		c, _ := s.pending.Get(id)
		c.timer.Cancel()
		c.recycle()
	}
	s.pending.Release()
}

// handle is the node's extension hook: a response answers its pending call
// (a duplicate or a late one finds none), a request is served. A carried
// request comes here from the lookup that delivered it, with its origin as
// the sender. No message is the node's stop.
func (s *Service) handle(from uint64, msg proto.Message) {
	switch m := msg.(type) {
	case nil:
		s.abandon()
	case *proto.DHTStore, *proto.DHTFetch, *proto.DHTReplicate:
		s.serve(from, m.(proto.SvcMessage), nil)
	case *proto.DHTStoreAck, *proto.DHTFetchReply, *proto.DHTReplicateAck:
		resp := m.(proto.SvcMessage)
		if c, ok := s.pending.Get(resp.SvcID()); ok {
			c.finish(resp, nil)
		}
	}
}

// serve hands a request to its handler with a pooled responder. A request
// whose owner is this node comes here too, with local its caller's
// callback, keeping local and remote keys on one code path. A handler may
// answer later (read-repair consults the replicas first); one that does
// copies what it needs out of req first, since a pooled request goes back
// to its pool when the delivering datagram ends, and calls respond once: a
// second call would answer for whatever request the responder serves next.
func (s *Service) serve(from uint64, req proto.SvcMessage, local func(proto.SvcMessage, error)) {
	r, _ := responderPool.Get().(*responder)
	if r == nil {
		r = new(responder)
		r.respond = r.answer
	}
	r.s, r.id, r.to, r.local = s, req.SvcID(), from, local
	switch m := req.(type) {
	case *proto.DHTStore:
		s.handleStore(from, m, r.respond)
	case *proto.DHTFetch:
		s.handleFetch(from, m, r.respond)
	case *proto.DHTReplicate:
		s.handleReplicate(from, m, r.respond)
	}
}

// answer stamps the response with the request's id and this node as its
// sender, and delivers it; a nil response drops the request, which a
// remote caller sees as a timeout. A local response is recycled after the
// callback returns — exactly what the network does at end-of-datagram on
// the remote path — so callbacks copy anything they keep.
func (r *responder) answer(resp proto.SvcMessage) {
	s, id, to, local := r.s, r.id, r.to, r.local
	r.s, r.local = nil, nil
	responderPool.Put(r)
	switch {
	case local != nil && resp == nil:
		local(nil, ErrTimeout)
	case local != nil:
		resp.SetSvc(id, s.node.Ref())
		local(resp, nil)
		proto.ReleaseDecoded(resp)
	case resp != nil:
		resp.SetSvc(id, s.node.Ref())
		s.node.Send(to, resp)
	}
}
