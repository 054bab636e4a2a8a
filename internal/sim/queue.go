package sim

import "time"

// Queue positions an event record holds besides its heap index.
const (
	// notQueued marks a record that is pooled, or a periodic one whose
	// callback is running (fire re-queues it afterwards).
	notQueued = -1
	// cancelledFiring marks a periodic record cancelled inside its own
	// callback: fire recycles it instead of re-queueing it.
	cancelledFiring = -2
)

// event is one scheduled callback: 80 bytes, its size class
// (TestEventFitsItsSizeClass). Records are pooled: the free list threads
// through next, and gen increments on every recycle so stale Timer handles
// cannot touch a reused record.
type event struct {
	at  time.Duration
	seq uint64
	// h is the dispatch path's handler (Post); when it is nil, arg holds
	// the closure path's func(), which boxes without allocating.
	h   func(interface{})
	arg interface{}
	// period > 0 marks a periodic event, re-queued after each firing.
	period time.Duration
	// gate, when set, is the flag fn runs behind (Kernel.ScheduleGated).
	gate *bool

	k    *Kernel
	next *event
	gen  uint32
	// idx is the record's position in Kernel.q, or notQueued, or
	// cancelledFiring.
	idx int32
}

// open reports whether the event's gate, if it has one, lets fn run.
func (ev *event) open() bool { return ev.gate == nil || *ev.gate }

// alloc takes an event record from the pool.
func (k *Kernel) alloc() *event {
	ev := k.free
	if ev == nil {
		return &event{k: k}
	}
	k.free = ev.next
	ev.next = nil
	return ev
}

// recycle resets a record and returns it to the pool. The generation bump
// invalidates every Timer handle still pointing at the record.
func (k *Kernel) recycle(ev *event) {
	ev.gen++
	ev.h, ev.arg, ev.gate = nil, nil, nil
	ev.period = 0
	ev.idx = notQueued
	ev.next = k.free
	k.free = ev
}

// before is the queue's total order: due time, then scheduling sequence.
func before(a, b *event) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// push queues an event.
func (k *Kernel) push(ev *event) {
	k.q = append(k.q, ev)
	k.up(ev, len(k.q)-1)
}

// remove takes the event at heap position i out of the queue.
func (k *Kernel) remove(i int) {
	q := k.q
	q[i].idx = notQueued
	n := len(q) - 1
	last := q[n]
	q[n] = nil
	k.q = q[:n]
	if i == n {
		return
	}
	if i > 0 && before(last, q[(i-1)/2]) {
		k.up(last, i)
	} else {
		k.down(last, i)
	}
}

// up places ev at hole i or above, moving later parents down.
func (k *Kernel) up(ev *event, i int) {
	q := k.q
	for i > 0 {
		p := (i - 1) / 2
		if !before(ev, q[p]) {
			break
		}
		q[i] = q[p]
		q[i].idx = int32(i)
		i = p
	}
	q[i] = ev
	ev.idx = int32(i)
}

// down places ev at hole i or below, moving earlier children up.
func (k *Kernel) down(ev *event, i int) {
	q := k.q
	n := len(q)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && before(q[r], q[c]) {
			c = r
		}
		if !before(q[c], ev) {
			break
		}
		q[i] = q[c]
		q[i].idx = int32(i)
		i = c
	}
	q[i] = ev
	ev.idx = int32(i)
}
