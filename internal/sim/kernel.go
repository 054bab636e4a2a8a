// Package sim is a deterministic discrete-event simulation kernel.
//
// The TreeP paper evaluates the overlay with a packet-switching simulation
// (§IV); this kernel is the substrate for that evaluation. It provides a
// virtual clock, one event queue with stable FIFO ordering for
// simultaneous events, cancellable one-shot and periodic timers, a pooled
// closure-free dispatch path for high-volume events, and seed-derived
// random streams, so that every experiment in the repository is exactly
// reproducible from its seed.
//
// Scheduler architecture (see DESIGN.md §7): every pending event sits in
// one binary min-heap ordered by (time, sequence), and each record knows
// its heap position, so a cancel takes it out at once. Event records are
// pooled on a free list and recycled the moment they fire or are
// cancelled, so steady-state scheduling does not allocate. Timer handles
// are values that carry a generation number, so a handle kept past its
// event's recycling can never cancel the record's next occupant.
//
// The kernel is intentionally single-threaded: determinism is the property
// the figures depend on. Sharded (shard.go) is the engine every simulated
// cluster runs on: one or more kernels in lockstep epochs. The experiment
// harness adds parallelism across runs, many independent engines (trials,
// sweep points) on a worker pool.
package sim

import (
	"math/rand"
	"time"
	"unsafe"
)

// Kernel is a discrete-event scheduler with a virtual clock starting at 0.
// The zero value is not usable; call New.
type Kernel struct {
	now time.Duration
	seq uint64

	// q is the event queue: a binary min-heap over (at, seq), each record
	// holding its own position (event.idx).
	q []*event

	// free is the event-record pool (intrusive list through event.next).
	free *event
	// live counts scheduled, non-cancelled events (what Pending reports).
	live int

	// executed counts delivered events, for stats.
	executed uint64
	seed     int64

	// streams caches the per-label random streams so hot paths can call
	// Stream repeatedly without re-allocating a generator.
	streams map[uint64]*stream
}

// New returns a kernel whose random streams derive from seed.
func New(seed int64) *Kernel {
	return &Kernel{seed: seed, streams: make(map[uint64]*stream)}
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Executed returns the number of events delivered so far.
func (k *Kernel) Executed() uint64 { return k.executed }

// Timer is a handle to a scheduled event, held by value; Cancel prevents a
// pending event from firing. The handle pins a (record, generation) pair:
// once the event completes and its record is recycled, the handle and every
// copy of it go permanently inert. The zero Timer is inert too.
type Timer struct {
	ev  *event
	gen uint32
}

// Cancel stops the timer. Cancelling an already-fired or already-cancelled
// timer is a no-op. It reports whether the event was still pending. For
// periodic timers, Cancel stops all future firings.
func (t Timer) Cancel() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.idx == cancelledFiring {
		return false
	}
	k := ev.k
	k.live--
	if ev.idx == notQueued {
		// A periodic inside its own callback: fire recycles it after.
		ev.idx = cancelledFiring
		return true
	}
	k.remove(int(ev.idx))
	k.recycle(ev)
	return true
}

// Pending reports whether the timer has neither fired nor been cancelled.
// A periodic timer stays pending until cancelled.
func (t Timer) Pending() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.idx != cancelledFiring
}

// Schedule runs fn after delay of virtual time. A negative delay is treated
// as zero (fires "now", after currently queued simultaneous events).
func (k *Kernel) Schedule(delay time.Duration, fn func()) Timer {
	return k.ScheduleGated(nil, delay, fn)
}

// SchedulePeriodic runs fn after first (negative is zero, as for Schedule)
// and then every interval until the returned timer is cancelled. One pooled
// event record is re-queued after each firing, with a fresh sequence number
// so FIFO order against other events at the same instant holds, replacing
// the allocate-a-closure-per-tick reschedule idiom.
func (k *Kernel) SchedulePeriodic(first, interval time.Duration, fn func()) Timer {
	return k.SchedulePeriodicGated(nil, first, interval, fn)
}

// ScheduleGated is Schedule for a callback that runs only if *gate holds
// when the event comes due; otherwise the firing is consumed without
// calling fn. A runtime points every timer of one node at one flag, so a
// fail-stopped node's timers fall silent without being walked at kill time
// and speak again if the node is revived. The flag is read on the
// kernel's own loop.
func (k *Kernel) ScheduleGated(gate *bool, delay time.Duration, fn func()) Timer {
	return k.schedule(k.now+max(delay, 0), 0, fn, gate)
}

// SchedulePeriodicGated is SchedulePeriodic behind a gate (ScheduleGated):
// a firing that finds the gate shut is skipped, and the timer stays queued
// for the next interval.
func (k *Kernel) SchedulePeriodicGated(gate *bool, first, interval time.Duration, fn func()) Timer {
	if interval <= 0 {
		panic("sim: SchedulePeriodic with non-positive interval")
	}
	return k.schedule(k.now+max(first, 0), interval, fn, gate)
}

// schedule queues one closure event, periodic when period > 0.
func (k *Kernel) schedule(at, period time.Duration, fn func(), gate *bool) Timer {
	if fn == nil {
		panic("sim: Schedule with nil fn")
	}
	ev := k.newEvent(at)
	ev.arg, ev.period, ev.gate = fn, period, gate
	k.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Post schedules h(arg) after delay without allocating: no closure is
// captured and no Timer handle is created. It is the hot path for
// high-volume fire-and-forget events (netsim schedules one per datagram);
// h is typically a package-level dispatch function and arg a pooled record.
func (k *Kernel) Post(delay time.Duration, h func(arg interface{}), arg interface{}) {
	if h == nil {
		panic("sim: Post with nil handler")
	}
	if delay < 0 {
		delay = 0
	}
	ev := k.newEvent(k.now + delay)
	ev.h = h
	ev.arg = arg
	k.push(ev)
}

// newEvent takes a record from the pool and stamps time and sequence.
func (k *Kernel) newEvent(at time.Duration) *event {
	if at < k.now {
		at = k.now
	}
	ev := k.alloc()
	ev.at = at
	ev.seq = k.seq
	k.seq++
	k.live++
	return ev
}

// Run executes events until the queue drains. It always returns nil.
func (k *Kernel) Run() error {
	for len(k.q) > 0 {
		k.fire()
	}
	return nil
}

// RunUntil executes events with timestamps ≤ deadline and then advances the
// clock to the deadline. Events scheduled beyond the deadline stay queued;
// events scheduled exactly at the deadline (including from callbacks firing
// at the deadline) are executed.
func (k *Kernel) RunUntil(deadline time.Duration) {
	for k.due(deadline) {
		k.fire()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// due reports whether an event is queued at or before t.
func (k *Kernel) due(t time.Duration) bool { return len(k.q) > 0 && k.q[0].at <= t }

// RunFor advances the simulation by d of virtual time from now.
func (k *Kernel) RunFor(d time.Duration) { k.RunUntil(k.now + d) }

// Pending returns the number of live (scheduled, non-cancelled) events.
func (k *Kernel) Pending() int { return k.live }

// Next returns the due time of the earliest live event, or false when
// nothing is scheduled. It fires nothing and leaves the clock alone: a
// runtime on a real clock sleeps until the returned time, then calls
// RunUntil.
func (k *Kernel) Next() (time.Duration, bool) {
	if len(k.q) == 0 {
		return 0, false
	}
	return k.q[0].at, true
}

// MemBytes reports the heap behind the event records, scheduled and
// pooled (the pool keeps the most that were ever pending at once), and
// behind the queue's backing array and the random streams minted,
// registers included.
func (k *Kernel) MemBytes() (events, streams int) {
	n := k.live
	for ev := k.free; ev != nil; ev = ev.next {
		n++
	}
	for _, s := range k.streams {
		streams += int(unsafe.Sizeof(*s))
		if s.reg != nil {
			streams += int(unsafe.Sizeof(*s.reg))
		}
	}
	return n*int(unsafe.Sizeof(event{})) + cap(k.q)*int(unsafe.Sizeof(k.q[0])), streams
}

// fire delivers the queue's earliest event. One-shot records are recycled
// before the callback runs, so the callback may immediately reuse the
// record by scheduling; periodic records are re-queued with a fresh
// sequence number after the callback, matching the ordering of the
// schedule-inside-the-callback idiom they replace.
func (k *Kernel) fire() {
	ev := k.q[0]
	k.remove(0)
	k.now = ev.at
	k.executed++
	if ev.period > 0 {
		if ev.open() {
			ev.arg.(func())()
		}
		if ev.idx == cancelledFiring {
			k.recycle(ev)
			return
		}
		ev.at += ev.period
		ev.seq = k.seq
		k.seq++
		k.push(ev)
		return
	}
	k.live--
	h, arg, open := ev.h, ev.arg, ev.open()
	k.recycle(ev)
	switch {
	case h != nil:
		h(arg)
	case open:
		arg.(func())()
	}
}

// Stream returns an independent deterministic random stream for the given
// label (e.g. one per node, one for the workload). Streams derived from the
// same kernel seed and label are identical across runs, and distinct labels
// give uncorrelated streams (seed mixing via splitmix64). Repeated calls
// with the same label return the same stream object — the stream continues
// rather than restarting — so per-event callers pay a map hit, not a
// generator allocation. A stream draws what math/rand's source draws for
// its seed, in 64 bytes until its 274th draw (stream.go).
func (k *Kernel) Stream(label uint64) *rand.Rand {
	s, ok := k.streams[label]
	if !ok {
		s = newStream(int64(mix64(uint64(k.seed) ^ mix64(label))))
		k.streams[label] = s
	}
	return &s.r
}

// mix64 is the splitmix64 finaliser, a cheap strong bit mixer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
