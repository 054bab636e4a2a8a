// Package svc is the generic service plane: overlay-routed request /
// response plumbing for layered services (the DHT, discovery, anything
// built on top of the overlay).
//
// Before this plane existed every service hand-rolled the same machinery —
// a pending-operation map, request id allocation, a timeout timer per
// in-flight exchange — and none of them retried, so a single lost datagram
// failed the operation. The plane centralises that once, per node:
//
//   - one Server per plane, set when the plane is made and reached from
//     core.Node's extension slot: the plane dispatches inbound requests
//     to it, stamping the response's id and sender automatically;
//   - Call: a direct request to a known address with a per-attempt
//     deadline and bounded retries (UDP loses datagrams; requests are
//     idempotent or receiver-deduplicated by design);
//   - CallKey: one routed exchange with the overlay owner of a
//     coordinate. The request rides the §III.f owner lookup
//     (core.Node.LookupCarrying); the node where routing delivers serves it
//     with this node as the sender and answers here directly, so an
//     operation costs the lookup's hops and one reply, not a lookup, its
//     reply and a round trip. Every attempt routes afresh, because under
//     churn the owner may have changed between attempts. When the lookup
//     resolves to the local node the request is dispatched to the local
//     handler through the same code path, so services behave identically
//     whether the key lands on the caller or across the network.
//
// Like core.Node, a Plane is single-threaded: all methods and callbacks
// run on the node's event loop.
package svc

import (
	"errors"
	"sync"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
)

// Errors delivered to Call/CallKey callbacks.
var (
	// ErrLookupFailed: the overlay could not resolve the key's owner.
	ErrLookupFailed = errors.New("svc: owner lookup failed")
	// ErrTimeout: no response arrived within the deadline, all retries
	// included.
	ErrTimeout = errors.New("svc: request timed out")
	// ErrNoHandler: the (possibly local) destination does not serve the
	// request type.
	ErrNoHandler = errors.New("svc: no handler for request type")
)

// Server serves the requests that reach a plane. Serve reports whether it
// serves req's type, and if so calls respond exactly once — synchronously
// or later (a server may itself issue Calls before answering). Responding
// nil drops the request silently: the caller times out and retries, which
// is the correct reaction when the server cannot answer authoritatively.
// The plane stamps the response's id and sender; servers fill only their
// own fields.
//
// A server that answers asynchronously must copy what it needs out of req
// before returning: a pooled request message goes back to its pool
// (proto.ReleaseDecoded) when the delivering datagram ends, so retaining
// req or any slice it carries past Serve's own frame is a
// use-after-release. So is a second call of respond: it is a pooled
// responder's, and may already answer another request.
type Server interface {
	Serve(from uint64, req proto.SvcMessage, respond func(proto.SvcMessage)) bool
}

// CallOpts bounds one logical request.
type CallOpts struct {
	// Timeout is the per-attempt deadline of a Call (default 2s). A
	// CallKey attempt ends with the lookup carrying it (the node's
	// LookupTimeout), and waits Timeout/2 before the next.
	Timeout time.Duration
	// Retries is how many times a timed-out attempt is re-sent before the
	// caller sees ErrTimeout (default 0: single attempt).
	Retries int
}

func (o CallOpts) withDefaults() CallOpts {
	if o.Timeout <= 0 {
		o.Timeout = 2 * time.Second
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	return o
}

// Stats counts service-plane events on one node.
type Stats struct {
	CallsStarted uint64
	Responses    uint64
	Retries      uint64
	Timeouts     uint64
	Served       uint64 // requests the server took
	Unhandled    uint64 // inbound requests of a type the server does not serve
}

// call is one in-flight request: a direct one (Call) to a known address,
// or a keyed one (CallKey), each attempt of which rides the owner lookup
// of its key. It is in the pending table from start to answer. Its
// callbacks are bound once, when the record is made: fire, the one timer
// (an attempt's deadline, or a keyed call's backoff), resolved, the
// lookup's report, and local, a local owner's answer. Records come from
// callPool and go back to it when the caller is answered.
type call struct {
	plane   *Plane
	id, to  uint64 // to is 0 for a keyed call
	key     idspace.ID
	algo    proto.Algo
	lookup  uint64 // the node's lookup carrying a keyed attempt, 0 when none is
	req     proto.SvcMessage
	timeout time.Duration
	retries int
	timer   core.Timer
	cb      func(proto.SvcMessage, error)
	keyCb   func(proto.NodeRef, proto.SvcMessage, error)

	fire     func()
	resolved func(core.LookupResult)
	local    func(proto.SvcMessage, error)
}

// responder answers one served request: a remote one by datagram to its
// sender, a local one through the local caller's callback. Its respond is
// bound once; records come from responderPool and go back once respond
// has run.
type responder struct {
	plane   *Plane
	id, to  uint64
	local   func(proto.SvcMessage, error)
	respond func(proto.SvcMessage)
}

// The record pools are process-wide, like proto's message pools: shard
// workers take and return records concurrently, and a peer holds no
// records of its own between operations.
var callPool, responderPool sync.Pool

// Plane is one node's service plane, held by value in its service and
// readied by Init; all methods must run on the node's event loop.
type Plane struct {
	node *core.Node
	srv  Server

	// respTypes is the set (bit t for MsgType t) of the message types
	// matched against the pending-call table. A plane has a few calls in
	// flight (DESIGN.md §16).
	respTypes uint32

	pending idspace.Keyed[uint64, *call]
	nextID  uint64

	// Stats counters.
	Stats Stats
}

// Init readies the plane to serve srv and installs it in the node's
// extension slot, replacing whatever extension was installed before.
// Inbound messages of the types in responses answer the plane's own calls.
func (p *Plane) Init(n *core.Node, srv Server, responses ...proto.MsgType) {
	p.node, p.srv = n, srv
	for _, t := range responses {
		p.respTypes |= 1 << t
	}
	n.SetExtension(p.handle)
}

// Node returns the underlying TreeP node.
func (p *Plane) Node() *core.Node { return p.node }

// Pending returns the number of in-flight calls (tests and shutdown
// diagnostics).
func (p *Plane) Pending() int { return p.pending.Len() }

// MemBytes reports the heap behind the plane's pending-call table; the
// call records are pooled.
func (p *Plane) MemBytes() int { return p.pending.MemBytes() }

// Call sends req to a known overlay address and invokes cb exactly once
// with the response or an error. The request id is assigned here; retries
// re-send with the same id, so duplicate responses are absorbed by the
// pending-table delete and receivers can deduplicate re-applied requests.
// A local destination dispatches to the local handler directly.
func (p *Plane) Call(to uint64, req proto.SvcMessage, o CallOpts, cb func(proto.SvcMessage, error)) {
	if to == p.node.Addr() || to == 0 {
		p.start(req)
		if !p.serve(p.node.Addr(), req, cb) {
			cb(nil, ErrNoHandler)
		}
		return
	}
	c := p.newCall(req, o)
	c.to, c.cb = to, cb
	c.attempt()
}

// CallKey sends req to the overlay owner of key in one routed exchange:
// req rides the §III.f lookup of key, the owner serves it as if this node
// had sent it, and its response comes straight back. cb receives the
// owner that answered alongside the response. Each attempt is one lookup,
// re-issued along the way as lookups are; one that fails (not found, or
// nothing back by the lookup timeout) consumes a retry after a short
// backoff — mid-churn failures are transient (the overlay repairs on its
// keep-alive cadence) and an immediate re-lookup would hit the same stale
// tables. An owner that is this node serves req locally, through the same
// code path.
func (p *Plane) CallKey(key idspace.ID, algo proto.Algo, req proto.SvcMessage, o CallOpts,
	cb func(proto.NodeRef, proto.SvcMessage, error)) {
	c := p.newCall(req, o)
	c.key, c.algo, c.keyCb = key, algo, cb
	c.route()
}

// start stamps req with the next request id and the sender, once for the
// whole call: every attempt — even one a re-resolved owner serves — carries
// it, so a receiver that already applied the request replays its recorded
// answer instead of re-applying.
func (p *Plane) start(req proto.SvcMessage) {
	p.nextID++
	p.Stats.CallsStarted++
	req.SetSvc(p.nextID, p.node.Ref())
}

// newCall starts a call for req on a pooled record in the pending table.
func (p *Plane) newCall(req proto.SvcMessage, o CallOpts) *call {
	p.start(req)
	o = o.withDefaults()
	c, _ := callPool.Get().(*call)
	if c == nil {
		c = new(call)
		c.fire, c.resolved, c.local = c.onTimer, c.onLookup, c.onLocal
	}
	c.plane, c.id, c.req, c.timeout, c.retries = p, p.nextID, req, o.Timeout, o.Retries
	p.pending.Put(c.id, c)
	return c
}

// attempt arms the deadline of one attempt of a direct call and sends the
// request. What goes out is a pooled copy for the network to recycle, never
// c.req itself: the call sends it again on a retry, and its owner may reuse
// it once the call is answered while a datagram is still in flight.
func (c *call) attempt() {
	c.timer = c.plane.node.SetTimer(c.timeout, c.fire)
	c.plane.node.Send(c.to, proto.PooledCopy(c.req))
}

// route starts one attempt of a keyed call: the owner lookup carrying req.
// A lookup that ended here has reported to onLookup before it returns, and
// the call may be answered and its record reused: only a lookup in flight
// is noted.
func (c *call) route() {
	if id := c.plane.node.LookupCarrying(c.key, c.algo, c.req, c.resolved); id != 0 {
		c.lookup = id
	}
}

// onLookup hears of a keyed attempt the lookup ended without a remote
// owner's answer: the owner is this node, or the attempt failed.
func (c *call) onLookup(r core.LookupResult) {
	c.lookup = 0
	p := c.plane
	switch {
	case r.Status == core.LookupFound:
		if !p.serve(p.node.Addr(), c.req, c.local) {
			c.onLocal(nil, ErrNoHandler)
		}
	case c.retry():
		c.timer = p.node.SetTimer(c.timeout/2, c.fire)
	case r.Status == core.LookupTimeout:
		p.Stats.Timeouts++
		c.finish(nil, ErrTimeout)
	default:
		c.finish(nil, ErrLookupFailed)
	}
}

// onLocal takes the local owner's answer, or starts the next attempt on an
// error.
func (c *call) onLocal(resp proto.SvcMessage, err error) {
	if err != nil && c.retry() {
		c.route()
		return
	}
	c.finish(resp, err)
}

// onTimer is the call's one timer: for a keyed call the end of a backoff,
// for a direct one an attempt's deadline, which sends the next attempt or
// answers ErrTimeout.
func (c *call) onTimer() {
	if cur, _ := c.plane.pending.Get(c.id); cur != c {
		return
	}
	switch {
	case c.to == 0:
		c.route()
	case c.retry():
		c.attempt()
	default:
		c.plane.Stats.Timeouts++
		c.finish(nil, ErrTimeout)
	}
}

// retry spends one retry, reporting whether there was one left.
func (c *call) retry() bool {
	if c.retries == 0 {
		return false
	}
	c.retries--
	c.plane.Stats.Retries++
	return true
}

// finish ends the call — its timer, and the lookup carrying it if one is in
// flight — hands the record back to callPool and answers the caller; a
// keyed caller also hears which owner answered.
func (c *call) finish(resp proto.SvcMessage, err error) {
	p := c.plane
	c.timer.Cancel()
	if c.lookup != 0 {
		p.node.EndLookup(c.lookup)
	}
	p.pending.Delete(c.id)
	cb, keyCb := c.cb, c.keyCb
	*c = call{fire: c.fire, resolved: c.resolved, local: c.local}
	callPool.Put(c)
	if keyCb == nil {
		cb(resp, err)
		return
	}
	var owner proto.NodeRef
	if resp != nil {
		owner = resp.SvcFrom()
	}
	keyCb(owner, resp, err)
}

// serve hands req to the server with a pooled responder, reporting whether
// the server took it; a responder it did not take goes back unused. A
// request whose owner is this node comes here too, with local its caller's
// callback, keeping local and remote keys on one code path. A local
// response is recycled after the callback returns — exactly what the
// network does at end-of-datagram on the remote path — so callbacks must
// copy anything they keep, as they do for remote responses.
func (p *Plane) serve(from uint64, req proto.SvcMessage, local func(proto.SvcMessage, error)) bool {
	r, _ := responderPool.Get().(*responder)
	if r == nil {
		r = new(responder)
		r.respond = r.answer
	}
	r.plane, r.id, r.to, r.local = p, req.SvcID(), from, local
	if !p.srv.Serve(from, req, r.respond) {
		r.plane, r.local = nil, nil
		responderPool.Put(r)
		return false
	}
	p.Stats.Served++
	return true
}

// answer stamps the response and delivers it; a nil response drops the
// request, which a remote caller sees as a timeout.
func (r *responder) answer(resp proto.SvcMessage) {
	p, id, to, local := r.plane, r.id, r.to, r.local
	r.plane, r.local = nil, nil
	responderPool.Put(r)
	switch {
	case local != nil && resp == nil:
		local(nil, ErrTimeout)
	case local != nil:
		resp.SetSvc(id, p.node.Ref())
		local(resp, nil)
		proto.ReleaseDecoded(resp)
	case resp != nil:
		resp.SetSvc(id, p.node.Ref())
		p.node.Send(to, resp)
	}
}

// handle is the node-extension hook: responses match pending calls,
// requests go to the server. A message is a response if its type was
// named at Init, a request otherwise.
func (p *Plane) handle(from uint64, msg proto.Message) bool {
	m, ok := msg.(proto.SvcMessage)
	if !ok {
		return false
	}
	t := m.Type()
	if p.respTypes>>t&1 != 0 {
		c, ok := p.pending.Get(m.SvcID())
		if !ok {
			return true // duplicate or late response
		}
		p.Stats.Responses++
		c.finish(m, nil)
		return true
	}
	if !p.serve(from, m, nil) {
		p.Stats.Unhandled++
		return false
	}
	return true
}
