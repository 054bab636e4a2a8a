// Sharded multi-core simulation: S single-threaded kernels advancing in
// lockstep epochs, exchanging cross-shard events at epoch barriers.
//
// The classic Kernel is intentionally single-threaded (see package doc);
// Sharded keeps that property per shard and adds conservative parallel
// discrete-event simulation on top. Correctness rests on a lookahead
// bound λ supplied by the caller: every event handed to Exchange must be
// due at least λ after the instant it was produced (netsim guarantees
// this with its latency floor — no datagram travels faster than the
// fastest link). Epochs then advance the global clock in steps of at
// most λ, so an event produced during epoch (W, B] is always due
// strictly after B and can be exchanged at the barrier without ever
// arriving in a shard's past.
//
// Determinism is the property the figures depend on, and it must not
// depend on the shard count. Three mechanisms make a seed reproduce
// bit-identical end states at any -shards value:
//
//   - Every shard kernel is created with the same seed, so Stream(label)
//     yields the same generator no matter which shard a label (node,
//     origin endpoint, workload) lands on.
//   - ALL inter-node events — including ones whose origin and
//     destination share a shard — travel through the exchange and are
//     released into the destination kernel in (due-time, origin, per-
//     origin sequence) order, a total order defined entirely by the
//     traffic itself, never by channel arrival or goroutine timing.
//   - Within one shard, the kernel's (at, seq) FIFO tie-break sequences
//     a node's own timers against released events identically for every
//     placement, and nodes only observe each other through exchanged
//     events.
//
// The outboxes are per-(origin shard, destination shard) slices, double
// buffered by epoch parity: during epoch e every producer appends to
// out[e&1] while consumers drain out[1-(e&1)], so no cell is ever read
// and written concurrently and no locks or atomics sit on the hot path.
// The coordinator's command/reply channels provide the happens-before
// edges that publish one epoch's writes to the next.
package sim

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/pprof"
	"sync/atomic"
	"time"
)

// XEvent is one exchanged event: a datagram (or any cross-node signal)
// produced on an origin shard and due for release on a destination
// shard. Origin and Seq form the deterministic merge key together with
// At; they must identify the producing endpoint and its send ordinal,
// not the producing shard, so the key survives re-sharding.
type XEvent struct {
	// At is the virtual time the event is due on the destination shard.
	At time.Duration
	// Origin identifies the producing endpoint (merge key, not routing).
	Origin uint64
	// Seq is the per-origin send ordinal (merge key tie-break).
	Seq uint64
	// To identifies the destination endpoint.
	To uint64
	// Size carries the wire size for accounting.
	Size int32
	// Payload is the event body, owned by the destination after release.
	Payload interface{}
}

// ExchangeHandler releases one due event into a destination shard's
// kernel. It runs on the destination shard's worker goroutine with the
// shard kernel's clock at the epoch's start, so k.Post(ev.At-k.Now(), …)
// schedules the event at its exact due time. Allocation policy lives
// with the handler: it should draw records from destination-shard-local
// pools to keep the hot path free of cross-shard sharing.
type ExchangeHandler func(shard int, k *Kernel, ev XEvent)

// Sharded runs S kernels in lockstep epochs. Construction, topology
// changes and all inspection methods (Now, Executed, Stream)
// belong to the control plane: they must only be called between Run
// calls, when every worker is parked at a barrier. RunUntil itself
// blocks until the target time is reached, so ordinary sequential use —
// build, run, inspect, mutate, run — is safe without further care. One
// shard runs its epochs inline on the caller's goroutine, so there its
// event callbacks may call Now and Stream as well.
type Sharded struct {
	lambda time.Duration
	shards []*Kernel

	handler ExchangeHandler

	// now is the global clock: the barrier time every shard has reached.
	now   time.Duration
	epoch uint64

	// out[p][origin*S+dest] is the epoch-parity-p outbox for one ordered
	// shard pair: single producer (origin's worker, or the control plane
	// while parked), single consumer (dest's worker next epoch).
	out [2][][]XEvent
	// inbox[dest] holds drained-but-not-yet-due events, a hand-rolled
	// min-heap ordered by (At, Origin, Seq). container/heap would box
	// every XEvent through its interface methods; at one push per
	// datagram that is the allocation hot path, so the heap is manual.
	inbox []xheap

	// cmd/done run the epoch protocol: the coordinator sends the epoch's
	// barrier time to every worker and collects one reply per shard.
	cmd  []chan time.Duration
	done chan struct{}

	interrupted atomic.Bool
	closed      bool
}

// NewSharded builds a sharded engine: shards kernels, all seeded with
// seed, advancing in epochs of at most lookahead. lookahead must be a
// strict lower bound on the latency of every exchanged event; netsim
// derives it from the latency model's floor. shards must be ≥ 1. One
// shard, or serial, runs the identical barrier protocol inline, shard by
// shard on the caller's goroutine: the same trajectory on one core.
func NewSharded(seed int64, shards int, lookahead time.Duration, serial bool) *Sharded {
	if shards < 1 {
		panic("sim: NewSharded needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: NewSharded needs a positive lookahead (zero-latency links cannot be sharded)")
	}
	s := &Sharded{
		lambda: lookahead,
		shards: make([]*Kernel, shards),
		inbox:  make([]xheap, shards),
	}
	for i := range s.shards {
		s.shards[i] = New(seed)
	}
	for p := 0; p < 2; p++ {
		s.out[p] = make([][]XEvent, shards*shards)
	}
	if shards > 1 && !serial {
		s.done = make(chan struct{}, shards)
		s.cmd = make([]chan time.Duration, shards)
		for i := range s.cmd {
			s.cmd[i] = make(chan time.Duration)
			go s.worker(i)
		}
	}
	return s
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// Shard returns shard i's kernel. Scheduling on it directly is safe
// only from that shard's own event callbacks or from the control plane.
func (s *Sharded) Shard(i int) *Kernel { return s.shards[i] }

// Now returns the global barrier clock. Individual shard kernels may
// briefly run ahead of it inside an epoch, never behind. With one shard
// its kernel's clock is the engine's: read from an event callback it is
// that event's time, not the barrier the epoch ends on.
func (s *Sharded) Now() time.Duration {
	if len(s.shards) == 1 {
		return s.shards[0].Now()
	}
	return s.now
}

// Stream returns the deterministic random stream for a label, shared
// with shard 0's kernel. Because every shard kernel mixes the same
// seed, a label's stream is the same object sequence regardless of
// which shard consumes it — control-plane streams (workload, IDs,
// scenario) and per-endpoint streams all stay placement-invariant.
func (s *Sharded) Stream(label uint64) *rand.Rand { return s.shards[0].Stream(label) }

// SetExchange installs the release hook. It must be set before the
// first event is exchanged and not changed afterwards.
func (s *Sharded) SetExchange(h ExchangeHandler) { s.handler = h }

// Exchange queues one event from an origin shard to a destination
// shard. Callable from the origin shard's event callbacks during an
// epoch, or from the control plane while parked; both append to the
// current-parity outbox, which the destination drains at the next
// barrier.
func (s *Sharded) Exchange(origin, dest int, ev XEvent) {
	if s.handler == nil {
		panic("sim: Exchange before SetExchange")
	}
	cell := origin*len(s.shards) + dest
	s.out[s.epoch&1][cell] = append(s.out[s.epoch&1][cell], ev)
}

// Executed returns the total events delivered across all shards.
func (s *Sharded) Executed() uint64 {
	var total uint64
	for _, k := range s.shards {
		total += k.Executed()
	}
	return total
}

// Interrupt makes the innermost RunUntil return at the next epoch
// barrier, and every later one return at once. It and Interrupted are
// the only methods safe to call from another goroutine (wall-clock
// budget watchdogs); the run stops at a consistent barrier, with the
// global clock short of the target.
func (s *Sharded) Interrupt() { s.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called.
func (s *Sharded) Interrupted() bool { return s.interrupted.Load() }

// RunUntil advances every shard to the target time in lockstep epochs.
// Epoch boundaries land on the λ grid plus the target itself, so two
// runs that reach the same target through different RunUntil splits
// execute identical epochs except for extra split points — and a split
// point only ever subdivides an epoch, which cannot reorder events
// (every exchanged event's due time still falls strictly beyond the
// barrier that ships it).
//
// A target at or before the barrier clock fires nothing, where
// Kernel.RunUntil still fires the events due at its clock.
func (s *Sharded) RunUntil(target time.Duration) {
	for s.now < target && !s.interrupted.Load() {
		b := (s.now/s.lambda + 1) * s.lambda
		if target < b {
			b = target
		}
		s.epoch++
		if s.cmd == nil {
			for i, k := range s.shards {
				s.drain(i)
				s.release(i, b)
				k.RunUntil(b)
			}
		} else {
			for _, c := range s.cmd {
				c <- b
			}
			for range s.cmd {
				<-s.done
			}
		}
		s.now = b
	}
}

// RunFor advances the engine by d of virtual time.
func (s *Sharded) RunFor(d time.Duration) { s.RunUntil(s.now + d) }

// Close terminates the worker goroutines. The engine is unusable
// afterwards; Close is idempotent.
func (s *Sharded) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, c := range s.cmd {
		close(c)
	}
}

// worker is one shard's goroutine: park at the barrier, run one epoch
// on command, reply, repeat. The pprof label makes per-shard time and
// barrier stalls attributable in CPU and block profiles.
func (s *Sharded) worker(i int) {
	pprof.Do(context.Background(), pprof.Labels("shard", fmt.Sprintf("%d", i)), func(context.Context) {
		for b := range s.cmd[i] {
			s.drain(i)
			s.release(i, b)
			s.shards[i].RunUntil(b)
			s.done <- struct{}{}
		}
	})
}

// drain moves the previous epoch's outbox cells addressed to shard i
// into its inbox heap. Reading the previous parity is what makes each
// cell single-producer/single-consumer: producers of epoch e write
// parity e&1, and this drain (running in epoch e) reads parity 1-(e&1),
// whose producers all parked at the barrier before this epoch began.
func (s *Sharded) drain(i int) {
	S := len(s.shards)
	prev := 1 - s.epoch&1
	h := &s.inbox[i]
	for o := 0; o < S; o++ {
		cell := o*S + i
		buf := s.out[prev][cell]
		for _, ev := range buf {
			h.push(ev)
		}
		s.out[prev][cell] = buf[:0]
	}
}

// release feeds shard i's kernel every inbox event due at or before the
// epoch bound, in (At, Origin, Seq) order. Posting in that order stamps
// ascending kernel sequence numbers, so the kernel's own FIFO tie-break
// reproduces the merge order exactly — including against the shard's
// local timers, which always carry earlier sequence numbers when they
// were scheduled in earlier epochs.
func (s *Sharded) release(i int, bound time.Duration) {
	k := s.shards[i]
	h := &s.inbox[i]
	for h.Len() > 0 {
		ev := h.min()
		if ev.At > bound {
			return
		}
		h.pop()
		s.handler(i, k, ev)
	}
}

// xheap is a binary min-heap of XEvents ordered by (At, Origin, Seq).
type xheap []XEvent

func xless(a, b XEvent) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Origin != b.Origin {
		return a.Origin < b.Origin
	}
	return a.Seq < b.Seq
}

// Len returns the heap size.
func (h xheap) Len() int { return len(h) }

// min returns the smallest element without removing it.
func (h xheap) min() XEvent { return h[0] }

func (h *xheap) push(ev XEvent) {
	*h = append(*h, ev)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !xless(a[i], a[p]) {
			break
		}
		a[i], a[p] = a[p], a[i]
		i = p
	}
}

func (h *xheap) pop() XEvent {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = XEvent{} // drop the payload reference for the GC
	a = a[:n]
	*h = a
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && xless(a[l], a[small]) {
			small = l
		}
		if r < n && xless(a[r], a[small]) {
			small = r
		}
		if small == i {
			break
		}
		a[i], a[small] = a[small], a[i]
		i = small
	}
	return top
}
