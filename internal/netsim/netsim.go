// Package netsim simulates a UDP/IP substrate on top of the sim kernel.
//
// TreeP is "a UDP based overlay architecture" (§III); its evaluation is a
// packet-switching simulation in which "routing decisions are made locally
// to each node without knowledge of the global state of the network" (§IV).
// netsim supplies exactly that: unreliable, unordered, best-effort datagram
// delivery between addressable endpoints, with configurable latency and
// loss models, node failure injection, and per-message accounting.
//
// The package is protocol-agnostic — the TreeP overlay, the Chord baseline
// and the flooding baseline all run unmodified on top of it. Payloads
// travel as Go values (zero-copy) for simulation speed; wire fidelity is
// covered by the proto package's codec tests and by the real UDP transport.
//
// A network runs on a sim.Sharded engine it builds (NewSharded), or on a
// bare sim.Kernel (New, for probes and the baseline overlays). It draws
// latency and loss in one of two orders. The classic order (New, or
// NewSharded with zero shards, which runs one shard) consumes one global
// stream in global send order and posts each datagram straight onto the
// kernel: the reference semantics every pre-sharding experiment was
// recorded under, and the only order that takes a trace hook. The
// per-origin order (NewSharded with one or more shards) pins endpoints to
// shards, sends every datagram through the engine's deterministic barrier
// exchange keyed by (due time, origin endpoint, per-origin sequence), and
// draws from per-origin streams, so the entire run is invariant under the
// shard count. Both orders share one send path, one delivery path and the
// per-shard counters and record pools. They differ in two places only:
// which stream an origin draws from, and whether a datagram is posted
// straight onto the kernel or exchanged at the barrier. No parallel
// schedule can reproduce one global stream, so runs of the same seed in
// the two orders are each deterministic but differ from each other.
package netsim

import (
	"fmt"
	"math/rand"
	"time"
	"unsafe"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/sim"
)

// Addr identifies an endpoint. Address 0 is reserved as "no address".
type Addr uint64

// NoAddr is the zero, invalid address.
const NoAddr Addr = 0

// String implements fmt.Stringer.
func (a Addr) String() string { return fmt.Sprintf("addr(%d)", uint64(a)) }

// Handler receives datagrams addressed to an endpoint.
type Handler func(from Addr, payload interface{}, size int)

// Stats aggregates network-wide message accounting.
type Stats struct {
	Sent         uint64 // datagrams handed to the network
	Delivered    uint64 // datagrams delivered to a live endpoint
	LostRandom   uint64 // dropped by the loss model
	LostDead     uint64 // addressed to a dead or unknown endpoint
	LostFiltered uint64 // dropped by the link filter (partitions)
	Bytes        uint64 // wire bytes of all sent datagrams
}

// add folds another shard's counter set in.
func (s *Stats) add(o Stats) {
	s.Sent += o.Sent
	s.Delivered += o.Delivered
	s.LostRandom += o.LostRandom
	s.LostDead += o.LostDead
	s.LostFiltered += o.LostFiltered
	s.Bytes += o.Bytes
}

// TraceEvent describes one datagram for the optional trace hook.
type TraceEvent struct {
	At       time.Duration
	From, To Addr
	Size     int
	Payload  interface{}
	Dropped  bool
	Reason   string // "", "loss", "dead", "mtu", "filtered"
}

// Network is a simulated datagram network. In the classic draw order it
// runs on one kernel's event loop and is not safe for concurrent use. In
// the per-origin order the per-endpoint state is struct-of-arrays so shard
// workers touch disjoint contiguous slots, and the only cross-shard
// traffic is the engine's barrier exchange; construction and topology
// changes (Attach, Kill, Revive, SetLinkFilter, Stats) remain
// control-plane-only, between engine runs.
type Network struct {
	kernel  *sim.Kernel
	latency LatencyModel
	// lossRate is the probability a datagram is silently dropped in flight.
	lossRate float64
	// rng is the classic draw order's one global stream, consumed in
	// global send order; nil when every origin draws from its own
	// (originRng). It is what the send path branches on.
	rng *rand.Rand

	// Endpoint state, indexed by address (slot 0 = NoAddr): Attach hands
	// out sequential addresses, so the per-datagram path is an array
	// index, not a map probe. Struct-of-arrays rather than a slice of
	// endpoint structs: the delivery path reads alive then handler, and
	// across shards the slabs keep each shard's slots contiguous.
	handlers []Handler
	epAlive  []bool

	trace func(TraceEvent)
	// mtu drops datagrams larger than this size when > 0, mirroring the
	// 64 KiB UDP limit by default.
	mtu int
	// linkFilter, when set, vetoes individual links: a datagram is dropped
	// in flight when the filter returns false for its (from, to) pair.
	// Scenario tools use it to simulate network partitions.
	linkFilter func(from, to Addr) bool
	// stats / free are per-shard counter and free-list slabs (one shard in
	// the classic draw order): send-side counters belong to the origin's
	// shard, arrival-side to the destination's, so no counter is written by
	// two workers. free pools in-flight datagram records so the per-datagram
	// hot path (one delivery event per Send) does not allocate; made counts
	// the records each shard's list ever allocated, free or queued.
	stats []Stats
	free  []*delivery
	made  []int

	// engine is the engine NewSharded built; nil on a bare kernel (New).
	engine *sim.Sharded
	// floor is the latency model's minimum one-way delay — the engine's
	// lookahead. Per-origin draws are clamped to it defensively; for the
	// shipped models the clamp never binds. Zero in the classic order.
	floor time.Duration
	// epShard pins each endpoint to its shard.
	epShard []int32
	// originSeq / originRng give each origin endpoint its own send
	// ordinal and latency/loss stream. The ordinal is the exchange merge
	// key; the stream makes draw order per-origin (each origin's sends
	// are totally ordered by its own execution), so neither depends on
	// how endpoints are placed across shards.
	originSeq []uint64
	originRng []*rand.Rand
}

// release hands a wire message whose datagram life has ended (delivered or
// dropped) to proto.ReleaseDecoded, which returns a pooled type to its
// pool. Releasing is suppressed while a trace hook is installed: trace
// consumers may retain payloads beyond the delivery instant.
func (n *Network) release(payload interface{}) {
	if n.trace != nil {
		return
	}
	if m, ok := payload.(proto.Message); ok {
		proto.ReleaseDecoded(m)
	}
}

// delivery is one in-flight datagram, scheduled through the kernel's
// closure-free dispatch path and recycled on arrival. shard is the
// destination shard whose free list owns the record: records never
// migrate between shards, so recycling needs no atomics.
type delivery struct {
	net     *Network
	from    Addr
	to      Addr
	payload interface{}
	size    int
	shard   int32
	next    *delivery
}

// take pops a record from a shard's free list, allocating when it is
// empty, and fills it in.
func (n *Network) take(shard int, from, to Addr, payload interface{}, size int) *delivery {
	d := n.free[shard]
	if d == nil {
		d = &delivery{}
		n.made[shard]++
	} else {
		n.free[shard] = d.next
		d.next = nil
	}
	d.net, d.from, d.to, d.payload, d.size, d.shard = n, from, to, payload, size, int32(shard)
	return d
}

// MemBytes reports the heap behind the network's pooled datagram records:
// as many as were ever in flight at once, queued or free. The payloads of
// the queued ones are the senders' messages and are not counted.
func (n *Network) MemBytes() (bytes int) {
	for _, m := range n.made {
		bytes += m * int(unsafe.Sizeof(delivery{}))
	}
	return bytes
}

// deliverDatagram is the single dispatch function for every in-flight
// datagram (sim.Kernel.Post's handler; no per-datagram closure).
func deliverDatagram(arg interface{}) { arg.(*delivery).deliver() }

func (d *delivery) deliver() {
	n, from, to, payload, size, shard := d.net, d.from, d.to, d.payload, d.size, d.shard
	d.net, d.payload = nil, nil
	d.next = n.free[shard]
	n.free[shard] = d

	stats := &n.stats[shard]
	// Liveness is checked at arrival, not at send: UDP gives the sender
	// no feedback, so a datagram to a dead host leaves the sender
	// normally and vanishes in the network.
	if !n.epAlive[to] {
		stats.LostDead++
		if n.trace != nil {
			n.trace(TraceEvent{At: n.kernel.Now(), From: from, To: to, Size: size, Payload: payload, Dropped: true, Reason: "dead"})
		}
		n.release(payload)
		return
	}
	stats.Delivered++
	n.handlers[to](from, payload, size)
	n.release(payload)
}

// Option configures a Network.
type Option func(*Network)

// WithLoss sets the random loss probability in [0,1).
func WithLoss(p float64) Option { return func(n *Network) { n.lossRate = p } }

// WithTrace installs a hook invoked for every datagram send.
func WithTrace(fn func(TraceEvent)) Option { return func(n *Network) { n.trace = fn } }

// newNetwork applies the defaults and options both draw orders share.
func newNetwork(shards int, opts []Option) *Network {
	n := &Network{
		latency:  UniformLatency{Min: 10 * time.Millisecond, Max: 60 * time.Millisecond},
		handlers: []Handler{nil}, // slot 0 = NoAddr
		epAlive:  []bool{false},
		mtu:      64 << 10,
		stats:    make([]Stats, max(shards, 1)),
		free:     make([]*delivery, max(shards, 1)),
		made:     make([]int, max(shards, 1)),
	}
	for _, o := range opts {
		o(n)
	}
	return n
}

// netLabel labels the classic draw order's stream and prefixes the
// per-origin ones.
const netLabel = 0x6e6574 // "net"

// New creates a network on a bare kernel, in the classic draw order.
func New(k *sim.Kernel, opts ...Option) *Network {
	n := newNetwork(1, opts)
	n.kernel, n.rng = k, k.Stream(netLabel)
	return n
}

// NewSharded creates a network on a sim.Sharded engine it builds itself,
// because the engine's lookahead is the latency model's floor and the
// model arrives through the options. The latency model must implement
// Floorer with a positive floor (all shipped models do unless configured
// with zero minimum latency). Zero shards runs one shard in the classic
// draw order, New's, on the shard's kernel. One or more draw per origin;
// tracing is control-plane machinery and is not supported there.
func NewSharded(seed int64, shards int, opts ...Option) *Network {
	n := newNetwork(shards, opts)
	f, ok := n.latency.(Floorer)
	if !ok {
		panic(fmt.Sprintf("netsim: latency model %T has no Floor; sharding needs a latency lower bound", n.latency))
	}
	floor := f.Floor()
	if floor <= 0 {
		panic("netsim: latency floor must be positive to shard (zero-latency links serialize the world)")
	}
	n.engine = sim.NewSharded(seed, max(shards, 1), floor)
	n.kernel = n.engine.Shard(0)
	if shards <= 0 {
		n.rng = n.kernel.Stream(netLabel)
		return n
	}
	if n.trace != nil {
		panic("netsim: tracing is not supported in the per-origin draw order")
	}
	n.floor = floor
	n.epShard = []int32{0}
	n.originSeq = []uint64{0}
	n.originRng = []*rand.Rand{nil}
	n.engine.SetExchange(n.exchange)
	return n
}

// Engine returns the engine NewSharded built, or nil on a bare kernel.
func (n *Network) Engine() *sim.Sharded { return n.engine }

// Attach registers a new endpoint and returns its address. The handler is
// invoked from the kernel's event loop for each delivered datagram. The
// endpoint lands on shard 0; use AttachOn to place it.
func (n *Network) Attach(h Handler) Addr { return n.AttachOn(0, h) }

// AttachOn registers a new endpoint pinned to a shard (control plane
// only). In the classic draw order the shard must be 0.
func (n *Network) AttachOn(shard int, h Handler) Addr {
	if h == nil {
		panic("netsim: Attach with nil handler")
	}
	a := Addr(len(n.handlers))
	n.handlers = append(n.handlers, h)
	n.epAlive = append(n.epAlive, true)
	if n.rng != nil {
		if shard != 0 {
			panic("netsim: AttachOn with nonzero shard in the classic draw order")
		}
		return a
	}
	if shard < 0 || shard >= n.engine.Shards() {
		panic(fmt.Sprintf("netsim: AttachOn shard %d out of range", shard))
	}
	n.epShard = append(n.epShard, int32(shard))
	n.originSeq = append(n.originSeq, 0)
	// The origin stream's label embeds the address under a "net" prefix
	// (disjoint from node-env streams labelled by bare address and from
	// the four-byte control-plane labels); deriving it from the owning
	// shard's kernel is a locality choice only — every shard kernel
	// shares the seed, so placement cannot change the stream.
	n.originRng = append(n.originRng, n.engine.Shard(shard).Stream(netLabel<<40|uint64(a)))
	return a
}

// valid reports whether the address names an attached endpoint.
func (n *Network) valid(a Addr) bool { return a != NoAddr && int(a) < len(n.handlers) }

// SetHandler replaces the handler of an existing endpoint (used by runtimes
// that attach before constructing the protocol state machine).
func (n *Network) SetHandler(a Addr, h Handler) {
	if !n.valid(a) {
		panic(fmt.Sprintf("netsim: SetHandler on unknown %v", a))
	}
	n.handlers[a] = h
}

// Kill marks the endpoint dead: it stops receiving, and datagrams to it are
// dropped. In-flight datagrams scheduled before the kill are also dropped on
// arrival (the process is gone). Killing an unknown or dead endpoint is a
// no-op so failure injectors can be sloppy.
func (n *Network) Kill(a Addr) {
	if n.valid(a) {
		n.epAlive[a] = false
	}
}

// Revive brings a killed endpoint back (node restart). The endpoint keeps
// its address and handler.
func (n *Network) Revive(a Addr) {
	if n.valid(a) {
		n.epAlive[a] = true
	}
}

// SetLinkFilter installs (or, with nil, removes) a per-link veto: while
// set, a datagram is silently dropped when fn(from, to) is false. The
// filter models partitions and asymmetric connectivity failures; it is
// consulted at send time, like a routing black hole between the sides.
// Sharded callers' filters must be read-only over state that only changes
// on the control plane (SplitFilter and PartitionBy qualify): the filter
// runs on shard workers.
func (n *Network) SetLinkFilter(fn func(from, to Addr) bool) { n.linkFilter = fn }

// SplitFilter builds a link filter that partitions endpoints into two
// sides at an overlay coordinate: a datagram passes only when both ends
// sit on the same side of split. idOf resolves an endpoint's overlay ID;
// endpoints it cannot resolve pass unconditionally. Sides are resolved
// lazily at send time, so nodes attached mid-partition are partitioned
// correctly too. Every overlay backend shares this one implementation:
//
//	net.SetLinkFilter(netsim.SplitFilter(split, idOf))
func SplitFilter(split idspace.ID, idOf func(Addr) (idspace.ID, bool)) func(from, to Addr) bool {
	return func(from, to Addr) bool {
		a, aok := idOf(from)
		b, bok := idOf(to)
		if !aok || !bok {
			return true
		}
		return (a <= split) == (b <= split)
	}
}

// Alive reports whether the endpoint exists and is live.
func (n *Network) Alive(a Addr) bool { return n.valid(a) && n.epAlive[a] }

// Stats returns a copy of the accumulated counters (summed across shards;
// control plane only).
func (n *Network) Stats() Stats {
	var out Stats
	for i := range n.stats {
		out.add(n.stats[i])
	}
	return out
}

// Send transmits one datagram. Delivery is best-effort: the datagram may be
// dropped by the loss model, because the destination is dead, or because it
// exceeds the MTU. size is the datagram's wire size in bytes (payload is
// carried by reference for speed; see package comment). The in-flight leg
// is a pooled record dispatched through the kernel's closure-free path, so
// steady-state traffic does not allocate per datagram.
//
// In the per-origin draw order Send runs on the origin endpoint's shard
// worker (or on the control plane while parked). Loss and latency come
// from the origin's own stream, and the datagram goes through the engine's
// barrier exchange under the origin's send ordinal — intra-shard traffic
// too, so all same-instant deliveries share one placement-invariant order.
// In the classic order it draws from the one stream and posts straight
// onto the kernel.
func (n *Network) Send(from, to Addr, payload interface{}, size int) {
	shard, rng := 0, n.rng
	if rng == nil {
		shard, rng = int(n.epShard[from]), n.originRng[from]
	}
	st := &n.stats[shard]
	st.Sent++
	st.Bytes += uint64(size)

	var drop string
	switch {
	case n.mtu > 0 && size > n.mtu:
		st.LostDead++ // accounted as undeliverable
		drop = "mtu"
	case !n.valid(to):
		st.LostDead++
		drop = "dead"
	case n.linkFilter != nil && !n.linkFilter(from, to):
		st.LostFiltered++
		drop = "filtered"
	case n.lossRate > 0 && rng.Float64() < n.lossRate:
		st.LostRandom++
		drop = "loss"
	}
	if n.trace != nil {
		n.trace(TraceEvent{At: n.kernel.Now(), From: from, To: to, Size: size, Payload: payload, Dropped: drop != "", Reason: drop})
	}
	if drop != "" {
		n.release(payload)
		return
	}
	delay := max(n.latency.Delay(from, to, rng), n.floor)
	if n.rng != nil {
		n.kernel.Post(delay, deliverDatagram, n.take(0, from, to, payload, size))
		return
	}
	seq := n.originSeq[from]
	n.originSeq[from]++
	n.engine.Exchange(shard, int(n.epShard[to]), sim.XEvent{
		At:      n.engine.Shard(shard).Now() + delay,
		Origin:  uint64(from),
		Seq:     seq,
		To:      uint64(to),
		Size:    int32(size),
		Payload: payload,
	})
}

// exchange is the engine's release hook: it runs on the destination
// shard's worker and builds the in-flight delivery record from that
// shard's own free list — the origin never touches destination-owned
// memory, which is what keeps both free lists atomic-free.
func (n *Network) exchange(shard int, k *sim.Kernel, ev sim.XEvent) {
	k.Post(ev.At-k.Now(), deliverDatagram, n.take(shard, Addr(ev.Origin), Addr(ev.To), ev.Payload, int(ev.Size)))
}
