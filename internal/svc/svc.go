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
//   - CallKey: resolve the overlay owner of a coordinate via the §III.f
//     lookup, then Call it — re-resolving on every retry, because under
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
	// Timeout is the per-attempt deadline (default 2s).
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

// call is one in-flight remote request: what a re-send needs, and one timer
// callback (fire, bound once to onDeadline) that re-arms itself per attempt.
// Records come from callPool and go back to it when the call completes.
type call struct {
	plane   *Plane
	id, to  uint64
	req     proto.SvcMessage
	timeout time.Duration
	retries int
	timer   core.Timer
	fire    func()
	cb      func(proto.SvcMessage, error)
}

// keyCall is one CallKey: the owner lookup and the call to the owner, run
// again on each retry under one request id. Its three callbacks are bound
// once, when the record is made; records come from keyCallPool and go back
// to it when the caller is answered.
type keyCall struct {
	plane   *Plane
	id      uint64
	key     idspace.ID
	algo    proto.Algo
	req     proto.SvcMessage
	timeout time.Duration
	retries int // retries left
	owner   proto.NodeRef
	cb      func(proto.NodeRef, proto.SvcMessage, error)

	try      func()
	resolved func(core.LookupResult)
	answered func(proto.SvcMessage, error)
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
var callPool, keyCallPool, responderPool sync.Pool

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
	p.nextID++
	p.callWithID(p.nextID, to, req, o, cb)
}

// callWithID is Call with a caller-chosen request id: CallKey keeps one id
// across its re-resolved attempts so the (eventual) owner can recognise a
// retried request whose earlier ack was lost.
func (p *Plane) callWithID(id, to uint64, req proto.SvcMessage, o CallOpts, cb func(proto.SvcMessage, error)) {
	o = o.withDefaults()
	p.Stats.CallsStarted++
	req.SetSvc(id, p.node.Ref())

	if to == p.node.Addr() || to == 0 {
		if !p.serve(p.node.Addr(), req, cb) {
			cb(nil, ErrNoHandler)
		}
		return
	}

	c, _ := callPool.Get().(*call)
	if c == nil {
		c = new(call)
		c.fire = c.onDeadline
	}
	c.plane, c.id, c.to, c.req, c.timeout, c.retries, c.cb = p, id, to, req, o.Timeout, o.Retries, cb
	p.pending.Put(id, c)
	c.attempt()
}

// CallKey resolves the overlay owner of key and Calls it. Every retry
// re-runs the lookup: under churn the owner of a coordinate changes, and
// re-sending to a dead owner would burn the whole retry budget on a node
// that can no longer answer. A failed lookup also consumes a retry, after
// a short backoff — mid-churn lookup failures are transient (the overlay
// repairs on its keep-alive cadence) and an immediate re-lookup would hit
// the same stale tables. cb receives the owner that answered alongside the
// response.
func (p *Plane) CallKey(key idspace.ID, algo proto.Algo, req proto.SvcMessage, o CallOpts,
	cb func(proto.NodeRef, proto.SvcMessage, error)) {
	o = o.withDefaults()
	// One id for the whole logical operation: every attempt — even against
	// a re-resolved owner — carries it, so a receiver that already applied
	// the request replays its recorded answer instead of re-applying.
	p.nextID++
	k, _ := keyCallPool.Get().(*keyCall)
	if k == nil {
		k = new(keyCall)
		k.try, k.resolved, k.answered = k.lookup, k.onLookup, k.onResponse
	}
	k.plane, k.id, k.key, k.algo, k.req, k.timeout, k.retries, k.cb = p, p.nextID, key, algo, req, o.Timeout, o.Retries, cb
	k.lookup()
}

// lookup starts one attempt by resolving the key's owner.
func (k *keyCall) lookup() { k.plane.node.Lookup(k.key, k.algo, k.resolved) }

// onLookup calls the owner the lookup found, or backs off and retries.
func (k *keyCall) onLookup(r core.LookupResult) {
	if r.Status != core.LookupFound {
		if k.retry() {
			k.plane.node.SetTimer(k.timeout/2, k.try)
			return
		}
		k.finish(proto.NodeRef{}, nil, ErrLookupFailed)
		return
	}
	k.owner = r.Best
	k.plane.callWithID(k.id, k.owner.Addr, k.req, CallOpts{Timeout: k.timeout}, k.answered)
}

// onResponse answers the caller, or starts the next attempt on an error.
func (k *keyCall) onResponse(resp proto.SvcMessage, err error) {
	if err != nil && k.retry() {
		k.lookup()
		return
	}
	k.finish(k.owner, resp, err)
}

// retry spends one retry, reporting whether there was one left.
func (k *keyCall) retry() bool {
	if k.retries == 0 {
		return false
	}
	k.retries--
	k.plane.Stats.Retries++
	return true
}

// finish hands the record back to keyCallPool and answers the caller.
func (k *keyCall) finish(owner proto.NodeRef, resp proto.SvcMessage, err error) {
	cb := k.cb
	k.plane, k.req, k.cb = nil, nil, nil
	keyCallPool.Put(k)
	cb(owner, resp, err)
}

// attempt arms the deadline of one attempt and sends the request. What goes
// out is a pooled copy for the network to recycle, never c.req itself: the
// call sends it again on a retry, and its owner may reuse it once the call
// is answered while a datagram is still in flight.
func (c *call) attempt() {
	c.timer = c.plane.node.SetTimer(c.timeout, c.fire)
	c.plane.node.Send(c.to, proto.PooledCopy(c.req))
}

// onDeadline is the call's one timer: the next attempt, or ErrTimeout.
func (c *call) onDeadline() {
	p := c.plane
	if cur, _ := p.pending.Get(c.id); cur != c {
		return
	}
	if c.retries > 0 {
		c.retries--
		p.Stats.Retries++
		c.attempt()
		return
	}
	p.Stats.Timeouts++
	c.finish()(nil, ErrTimeout)
}

// finish takes the call out of the pending table, hands the record back to
// callPool, and returns the callback to answer.
func (c *call) finish() func(proto.SvcMessage, error) {
	c.plane.pending.Delete(c.id)
	cb := c.cb
	c.plane, c.req, c.cb = nil, nil, nil
	callPool.Put(c)
	return cb
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
		c.timer.Cancel()
		p.Stats.Responses++
		c.finish()(m, nil)
		return true
	}
	if !p.serve(from, m, nil) {
		p.Stats.Unhandled++
		return false
	}
	return true
}
