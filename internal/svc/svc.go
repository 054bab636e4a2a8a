// Package svc is the generic service plane: overlay-routed request /
// response plumbing for layered services (the DHT, discovery, anything
// built on top of the overlay).
//
// Before this plane existed every service hand-rolled the same machinery —
// a pending-operation map, request id allocation, a timeout timer per
// in-flight exchange — and none of them retried, so a single lost datagram
// failed the operation. The plane centralises that once, per node:
//
//   - a typed handler registry hanging off core.Node's extension slot:
//     services register a handler per request message type and the plane
//     dispatches inbound requests to it, stamping the response's id and
//     sender automatically;
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
	// ErrNoHandler: the (possibly local) destination has no handler
	// registered for the request type.
	ErrNoHandler = errors.New("svc: no handler for request type")
)

// Handler serves one request type. It must call respond exactly once —
// synchronously or later (a handler may itself issue Calls before
// answering). Responding nil drops the request silently: the caller times
// out and retries, which is the correct reaction when the handler cannot
// answer authoritatively. The plane stamps the response's id and sender;
// handlers fill only their own fields.
//
// A handler that answers asynchronously must copy what it needs out of req
// before returning: pooled request messages are recycled when the
// delivering datagram ends (see proto.Recyclable), so retaining req or any
// slice it carries past the handler's own frame is a use-after-recycle.
type Handler func(from uint64, req proto.SvcMessage, respond func(proto.SvcMessage))

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
	Served       uint64 // requests dispatched to a local handler
	Unhandled    uint64 // inbound requests with no registered handler
}

// call is one in-flight remote request: what a re-send needs, and one timer
// callback (fire, bound once to onDeadline) that re-arms itself per attempt.
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

// Plane is one node's service plane. Create with Attach; all methods must
// run on the node's event loop.
type Plane struct {
	node *core.Node

	// handlers holds the Handler of each request MsgType; respTypes is the
	// set (bit t for MsgType t) of the message types matched against the
	// pending-call table. A plane serves a few types and has a few calls in
	// flight (DESIGN.md §16). The Handlers are held as any for the slab's
	// symbol alone, as core.peerState's fields are exported: Handler's own
	// type spells a package path, and the benchmark's CPU ledger could not
	// place the lookup.
	handlers  idspace.Keyed[proto.MsgType, any]
	respTypes uint32

	pending idspace.Keyed[uint64, *call]
	nextID  uint64

	// Stats counters.
	Stats Stats
}

// Attach creates the plane and installs it in the node's extension slot,
// replacing whatever extension was installed before.
func Attach(n *core.Node) *Plane {
	p := &Plane{node: n}
	n.SetExtension(p.handle)
	return p
}

// Node returns the underlying TreeP node.
func (p *Plane) Node() *core.Node { return p.node }

// Handle registers the handler for one request message type. Last
// registration wins; services own disjoint type sets by construction.
func (p *Plane) Handle(t proto.MsgType, h Handler) { p.handlers.Put(t, h) }

// ExpectResponse declares a message type to be a response: inbound
// messages of this type are matched against the pending-call table by
// SvcID instead of being dispatched to a handler.
func (p *Plane) ExpectResponse(t proto.MsgType) { p.respTypes |= 1 << t }

// Pending returns the number of in-flight calls (tests and shutdown
// diagnostics).
func (p *Plane) Pending() int { return p.pending.Len() }

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
		p.serveLocal(req, cb)
		return
	}

	c := &call{plane: p, id: id, to: to, req: req, timeout: o.Timeout, retries: o.Retries, cb: cb}
	c.fire = c.onDeadline
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
	id := p.nextID
	attempt := 0
	var try func()
	try = func() {
		p.node.Lookup(key, algo, func(r core.LookupResult) {
			if r.Status != core.LookupFound {
				if attempt < o.Retries {
					attempt++
					p.Stats.Retries++
					p.node.SetTimer(o.Timeout/2, try)
					return
				}
				cb(proto.NodeRef{}, nil, ErrLookupFailed)
				return
			}
			owner := r.Best
			p.callWithID(id, owner.Addr, req, CallOpts{Timeout: o.Timeout}, func(resp proto.SvcMessage, err error) {
				if err == nil {
					cb(owner, resp, nil)
					return
				}
				if attempt < o.Retries {
					attempt++
					p.Stats.Retries++
					try()
					return
				}
				cb(owner, nil, err)
			})
		})
	}
	try()
}

// attempt arms the deadline of one attempt and sends the request.
func (c *call) attempt() {
	c.timer = c.plane.node.SetTimer(c.timeout, c.fire)
	c.plane.node.Send(c.to, c.req)
}

// onDeadline is the call's one timer: the next attempt, or ErrTimeout.
func (c *call) onDeadline() {
	p := c.plane
	if p.pending.Find(c.id) == nil {
		return
	}
	if c.retries > 0 {
		c.retries--
		p.Stats.Retries++
		c.attempt()
		return
	}
	p.pending.Delete(c.id)
	p.Stats.Timeouts++
	c.cb(nil, ErrTimeout)
}

// serveLocal dispatches a request whose owner is this node to the local
// handler, keeping local and remote keys on one code path. The response is
// recycled after the callback returns — exactly what the network does at
// end-of-datagram on the remote path — so callbacks must copy anything
// they keep (the same contract they already obey for remote responses).
func (p *Plane) serveLocal(req proto.SvcMessage, cb func(proto.SvcMessage, error)) {
	h, ok := p.handlers.Get(req.Type())
	if !ok {
		cb(nil, ErrNoHandler)
		return
	}
	p.Stats.Served++
	h.(Handler)(p.node.Addr(), req, func(resp proto.SvcMessage) {
		if resp == nil {
			cb(nil, ErrTimeout)
			return
		}
		resp.SetSvc(req.SvcID(), p.node.Ref())
		cb(resp, nil)
		if r, ok := resp.(proto.Recyclable); ok {
			r.Recycle()
		}
	})
}

// handle is the node-extension hook: responses match pending calls,
// requests dispatch to their registered handler. A message is a response
// if its type was declared with ExpectResponse, a request otherwise.
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
		p.pending.Delete(m.SvcID())
		if c.timer != nil {
			c.timer.Cancel()
		}
		p.Stats.Responses++
		c.cb(m, nil)
		return true
	}
	h, ok := p.handlers.Get(t)
	if !ok {
		p.Stats.Unhandled++
		return false
	}
	p.Stats.Served++
	id := m.SvcID()
	h.(Handler)(from, m, func(resp proto.SvcMessage) {
		if resp == nil {
			return
		}
		resp.SetSvc(id, p.node.Ref())
		p.node.Send(from, resp)
	})
	return true
}
