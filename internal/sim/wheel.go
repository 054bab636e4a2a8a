package sim

import (
	"container/heap"
	"math/bits"
	"time"
)

// Wheel geometry. One tick is 2^tickShift nanoseconds (~1.05 ms), chosen so
// that typical datagram latencies (tens of ms) land a few slots out and
// protocol timers (seconds) stay within the second level. Three levels of
// 256 slots cover ~4.9 hours of virtual time; anything beyond spills into
// the overflow heap, which is drained back into the wheels as the cursor
// crosses window boundaries.
const (
	tickShift   = 20
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 3
)

// Event locations, for Cancel and cascade bookkeeping. Wheel levels are
// locWheel0+L so the level is recoverable from the location byte.
const (
	locFree uint8 = iota
	locReady
	locOverflow
	locFiring
	locWheel0 // locWheel0+1, locWheel0+2 are the higher levels
)

// event is one scheduled callback. Records are pooled: the free list and
// the wheel buckets both thread through next/prev, and gen increments on
// every recycle so stale Timer handles cannot touch a reused record.
type event struct {
	at  time.Duration
	seq uint64
	// Exactly one of fn (closure path) or h+arg (dispatch path) is set.
	fn  func()
	h   func(interface{})
	arg interface{}
	// period > 0 marks a periodic event, re-queued after each firing.
	period time.Duration
	// gate, when set, is the flag fn runs behind (Kernel.ScheduleGated).
	gate *bool

	k          *Kernel
	next, prev *event
	gen        uint32
	where      uint8
	cancelled  bool
}

// cancel clears the callback fields so long-lived queues do not pin memory.
func (ev *event) cancel() {
	ev.cancelled = true
	ev.fn, ev.h, ev.arg, ev.gate = nil, nil, nil, nil
	ev.period = 0
}

// open reports whether the event's gate, if it has one, lets fn run.
func (ev *event) open() bool { return ev.gate == nil || *ev.gate }

// eventTick is the wheel tick an event's timestamp falls in.
func eventTick(ev *event) int64 { return int64(ev.at) >> tickShift }

// wheelSlot is the slot index of a tick at the given level.
func wheelSlot(tick int64, level int) int {
	return int(tick>>(level*wheelBits)) & wheelMask
}

// wheelLevel is one ring of buckets. Buckets are intrusive doubly-linked
// lists (unordered — the ready heap re-establishes (at, seq) order), with
// an occupancy bitmap so the cursor can jump straight to the next busy
// slot. Cancelled events are unlinked eagerly, so occupancy is exact.
type wheelLevel struct {
	slots    [wheelSlots]*event
	occupied [wheelSlots / 64]uint64
	count    int
}

func (l *wheelLevel) add(ev *event, slot int, level int) {
	head := l.slots[slot]
	ev.next, ev.prev = head, nil
	if head != nil {
		head.prev = ev
	}
	l.slots[slot] = ev
	l.occupied[slot>>6] |= 1 << uint(slot&63)
	l.count++
	ev.where = locWheel0 + uint8(level)
}

func (l *wheelLevel) remove(ev *event, slot int) {
	if ev.prev != nil {
		ev.prev.next = ev.next
	} else {
		l.slots[slot] = ev.next
	}
	if ev.next != nil {
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
	if l.slots[slot] == nil {
		l.occupied[slot>>6] &^= 1 << uint(slot&63)
	}
	l.count--
}

// take detaches and returns a slot's whole bucket.
func (l *wheelLevel) take(slot int) *event {
	head := l.slots[slot]
	l.slots[slot] = nil
	l.occupied[slot>>6] &^= 1 << uint(slot&63)
	for ev := head; ev != nil; ev = ev.next {
		l.count--
	}
	return head
}

// nextOccupied returns the lowest occupied slot strictly greater than
// after. The wheel invariants guarantee pending events never sit at or
// below the cursor's own slot, so the scan never needs to wrap.
func (l *wheelLevel) nextOccupied(after int) (int, bool) {
	if l.count == 0 {
		return 0, false
	}
	w := after >> 6
	bits64 := l.occupied[w] &^ (1<<(uint(after&63)+1) - 1)
	for {
		if bits64 != 0 {
			return w<<6 + bits.TrailingZeros64(bits64), true
		}
		w++
		if w >= len(l.occupied) {
			return 0, false
		}
		bits64 = l.occupied[w]
	}
}

// --- kernel scheduling internals ---------------------------------------------

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
	ev.fn, ev.h, ev.arg, ev.gate = nil, nil, nil, nil
	ev.period = 0
	ev.cancelled = false
	ev.where = locFree
	ev.prev = nil
	ev.next = k.free
	k.free = ev
}

// insert routes an event to the ready heap, a wheel level, or the overflow
// heap, based on where its tick falls relative to the cursor. Events at or
// before the cursor are due (the cursor may run ahead of the clock); an
// event shares level L with the cursor when their ticks agree above the
// L+1 lowest slot-index bytes.
func (k *Kernel) insert(ev *event) {
	t := eventTick(ev)
	cur := k.curTick
	switch {
	case t <= cur:
		ev.where = locReady
		heap.Push(&k.ready, ev)
	case t>>wheelBits == cur>>wheelBits:
		k.levels[0].add(ev, wheelSlot(t, 0), 0)
	case t>>(2*wheelBits) == cur>>(2*wheelBits):
		k.levels[1].add(ev, wheelSlot(t, 1), 1)
	case t>>(3*wheelBits) == cur>>(3*wheelBits):
		k.levels[2].add(ev, wheelSlot(t, 2), 2)
	default:
		ev.where = locOverflow
		heap.Push(&k.overflow, ev)
	}
}

// setTick advances the cursor to nt, cascading buckets whose window the
// cursor enters. Callers guarantee no live event lies strictly between the
// old cursor position and nt (nt is either the next busy slot's tick, the
// earliest overflow tick, or an idle deadline), so skipped slots are empty.
func (k *Kernel) setTick(nt int64) {
	old := k.curTick
	if nt <= old {
		return
	}
	k.curTick = nt
	if nt>>(3*wheelBits) != old>>(3*wheelBits) {
		k.drainOverflow(nt)
	}
	// Higher levels first: a level-2 bucket may cascade into the level-1
	// slot being entered, which then cascades onward in the same pass.
	if nt>>(2*wheelBits) != old>>(2*wheelBits) {
		k.cascade(2, wheelSlot(nt, 2))
	}
	if nt>>wheelBits != old>>wheelBits {
		k.cascade(1, wheelSlot(nt, 1))
	}
	k.cascade(0, wheelSlot(nt, 0))
}

// cascade re-inserts a bucket's events relative to the new cursor: one
// level down, or into the ready heap once their tick is reached.
func (k *Kernel) cascade(level, slot int) {
	ev := k.levels[level].take(slot)
	for ev != nil {
		next := ev.next
		ev.next, ev.prev = nil, nil
		k.insert(ev)
		ev = next
	}
}

// drainOverflow pulls every overflow event at or before the end of the
// cursor's new top-level window back into the wheels. Lazily cancelled
// entries encountered on the way are recycled.
func (k *Kernel) drainOverflow(nt int64) {
	windowEnd := (nt>>(3*wheelBits) + 1) << (3 * wheelBits)
	for k.overflow.Len() > 0 {
		top := k.overflow[0]
		if eventTick(top) >= windowEnd {
			return
		}
		heap.Pop(&k.overflow)
		if top.cancelled {
			k.overflowCancelled--
			k.recycle(top)
			continue
		}
		k.insert(top)
	}
}

// compactOverflow drops lazily cancelled entries and re-establishes the
// heap. Order among live events is unchanged: the comparator is the total
// (at, seq) order.
func (k *Kernel) compactOverflow() {
	n := len(k.overflow)
	kept := k.overflow[:0]
	for _, ev := range k.overflow {
		if ev.cancelled {
			k.recycle(ev)
		} else {
			kept = append(kept, ev)
		}
	}
	for i := len(kept); i < n; i++ {
		k.overflow[i] = nil
	}
	k.overflow = kept
	heap.Init(&k.overflow)
	k.overflowCancelled = 0
}

// peek returns the earliest live pending event, advancing the cursor (and
// cascading buckets) as far as needed; nil when nothing is scheduled. The
// returned event is the ready heap's minimum.
func (k *Kernel) peek() *event {
	for {
		for k.ready.Len() > 0 {
			top := k.ready[0]
			if !top.cancelled {
				return top
			}
			heap.Pop(&k.ready)
			k.recycle(top)
		}
		cur := k.curTick
		if s, ok := k.levels[0].nextOccupied(wheelSlot(cur, 0)); ok {
			k.setTick(cur&^wheelMask | int64(s))
			continue
		}
		if s, ok := k.levels[1].nextOccupied(wheelSlot(cur, 1)); ok {
			k.setTick((cur>>wheelBits&^wheelMask | int64(s)) << wheelBits)
			continue
		}
		if s, ok := k.levels[2].nextOccupied(wheelSlot(cur, 2)); ok {
			k.setTick((cur>>(2*wheelBits)&^wheelMask | int64(s)) << (2 * wheelBits))
			continue
		}
		if k.overflow.Len() > 0 {
			k.setTick(eventTick(k.overflow[0]))
			continue
		}
		return nil
	}
}

// eventHeap is a binary min-heap over (at, seq): the exact global event
// order. It backs both the ready heap and the far-future overflow.
type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}
