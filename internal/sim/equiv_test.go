package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file proves the timing-wheel scheduler is observationally identical
// to the single binary heap it replaced: for the same seed, the same
// schedule/cancel/periodic workload fires in exactly the same order at the
// same virtual times. refKernel below is the retired heap implementation,
// kept as the ordering oracle.

type refEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	cancelled bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(*refEvent)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return ev
}

type refKernel struct {
	now    time.Duration
	seq    uint64
	events refHeap
}

func (k *refKernel) schedule(d time.Duration, fn func()) *refEvent {
	if d < 0 {
		d = 0
	}
	at := k.now + d
	if at < k.now {
		at = k.now
	}
	ev := &refEvent{at: at, seq: k.seq, fn: fn}
	k.seq++
	heap.Push(&k.events, ev)
	return ev
}

func (k *refKernel) runUntil(deadline time.Duration) {
	for k.events.Len() > 0 {
		ev := k.events[0]
		if ev.cancelled {
			heap.Pop(&k.events)
			continue
		}
		if ev.at > deadline {
			break
		}
		heap.Pop(&k.events)
		k.now = ev.at
		ev.fn()
	}
	if k.now < deadline {
		k.now = deadline
	}
}

// next is the earliest live event's time by a full scan: the oracle for
// Kernel.Next.
func (k *refKernel) next() (time.Duration, bool) {
	var at time.Duration
	ok := false
	for _, ev := range k.events {
		if !ev.cancelled && (!ok || ev.at < at) {
			at, ok = ev.at, true
		}
	}
	return at, ok
}

// testSched abstracts the two schedulers for the shared workload driver.
// schedule and schedulePeriodic return cancel functions.
type testSched interface {
	now() time.Duration
	schedule(d time.Duration, fn func()) func() bool
	schedulePeriodic(d time.Duration, fn func()) func() bool
	runUntil(t time.Duration)
	next() (time.Duration, bool)
}

type wheelSched struct{ k *Kernel }

func (s wheelSched) now() time.Duration { return s.k.Now() }
func (s wheelSched) schedule(d time.Duration, fn func()) func() bool {
	tm := s.k.Schedule(d, fn)
	return tm.Cancel
}
func (s wheelSched) schedulePeriodic(d time.Duration, fn func()) func() bool {
	tm := s.k.SchedulePeriodic(d, fn)
	return tm.Cancel
}
func (s wheelSched) runUntil(t time.Duration)    { _ = s.k.RunUntil(t) }
func (s wheelSched) next() (time.Duration, bool) { return s.k.Next() }

type refSched struct{ k *refKernel }

func (s refSched) now() time.Duration { return s.k.now }
func (s refSched) schedule(d time.Duration, fn func()) func() bool {
	ev := s.k.schedule(d, fn)
	return func() bool {
		if ev.cancelled {
			return false
		}
		ev.cancelled = true
		return true
	}
}

// schedulePeriodic emulates the kernel's periodic contract on the heap:
// run fn, then re-queue with a fresh sequence number — the exact ordering
// of the schedule-inside-the-callback idiom the kernel API replaced.
func (s refSched) schedulePeriodic(d time.Duration, fn func()) func() bool {
	cancelled := false
	var cur *refEvent
	var tick func()
	tick = func() {
		fn()
		if !cancelled {
			cur = s.k.schedule(d, tick)
		}
	}
	cur = s.k.schedule(d, tick)
	return func() bool {
		if cancelled {
			return false
		}
		cancelled = true
		cur.cancelled = true
		return true
	}
}
func (s refSched) runUntil(t time.Duration)    { s.k.runUntil(t) }
func (s refSched) next() (time.Duration, bool) { return s.k.next() }

// driveWorkload runs a randomized schedule/cancel/periodic workload on the
// given scheduler and returns the fire log ("id@virtualtime" per event,
// "next=time,ok" after every step).
// All randomness flows from the shared rng, whose draw order depends only
// on the event fire order — so two schedulers produce identical logs iff
// they order events identically.
func driveWorkload(s testSched, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var cancels []func() bool
	count := 0
	const maxSpawned = 3000
	// Delays straddle every scheduler region: sub-tick, one tick exactly,
	// level-0/1/2 wheel windows, and past the ~4.9 h horizon (overflow).
	delays := []time.Duration{
		0, 1, time.Microsecond, 37 * time.Microsecond,
		time.Millisecond, 1 << tickShift, 5 * time.Millisecond,
		271 * time.Millisecond, 900 * time.Millisecond,
		3 * time.Second, 67 * time.Second, 2 * time.Minute,
		3 * time.Hour, 26 * time.Hour,
	}
	// probe logs the earliest pending time, so the equivalence test holds
	// Next to the reference heap's scan after every step. Asking must fire
	// nothing and leave the clock where it was.
	probe := func() {
		n, now := len(log), s.now()
		at, ok := s.next()
		if len(log) != n || s.now() != now {
			log = append(log, "next fired an event or moved the clock")
		}
		log = append(log, fmt.Sprintf("next=%d,%v", at, ok))
	}
	var fire func(id int) func()
	schedule := func() {
		if count >= maxSpawned {
			return
		}
		count++
		id := count
		d := delays[rng.Intn(len(delays))]
		if rng.Intn(4) == 0 {
			d += time.Duration(rng.Intn(5000)) * time.Microsecond
		}
		if rng.Intn(16) == 0 {
			p := d
			if p < 700*time.Millisecond {
				p = 700 * time.Millisecond
			}
			cancels = append(cancels, s.schedulePeriodic(p, fire(id)))
		} else {
			cancels = append(cancels, s.schedule(d, fire(id)))
		}
	}
	fire = func(id int) func() {
		return func() {
			log = append(log, fmt.Sprintf("%d@%d", id, s.now()))
			for n := rng.Intn(3); n > 0; n-- {
				schedule()
			}
			if len(cancels) > 0 && rng.Intn(3) == 0 {
				cancels[rng.Intn(len(cancels))]()
			}
			probe()
		}
	}
	for i := 0; i < 50; i++ {
		schedule()
	}
	probe()
	// Deadline-bounded runs with awkward boundaries, then cancel the
	// periodics and drain the far future (the overflow heap).
	for t := 900 * time.Millisecond; t <= 40*time.Second; t += 6*time.Second + 13*time.Millisecond {
		s.runUntil(t)
		probe()
	}
	for _, c := range cancels {
		c()
	}
	probe()
	s.runUntil(40 * time.Hour)
	probe()
	return log
}

// TestWheelHeapEquivalence is the determinism contract of the refactor:
// identical seeds must produce identical event order on the wheel and on
// the reference heap.
func TestWheelHeapEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		wheel := driveWorkload(wheelSched{New(0)}, seed)
		ref := driveWorkload(refSched{&refKernel{}}, seed)
		if len(wheel) == 0 {
			t.Fatalf("seed %d: empty fire log", seed)
		}
		if len(wheel) != len(ref) {
			t.Fatalf("seed %d: wheel fired %d events, heap %d", seed, len(wheel), len(ref))
		}
		for i := range wheel {
			if wheel[i] != ref[i] {
				t.Fatalf("seed %d: order diverges at event %d: wheel %s, heap %s",
					seed, i, wheel[i], ref[i])
			}
		}
	}
}

// TestFuzzDeterministicReplay replays a random schedule/cancel sequence
// twice on the wheel kernel; the fire logs must match exactly.
func TestFuzzDeterministicReplay(t *testing.T) {
	for seed := int64(10); seed <= 14; seed++ {
		a := driveWorkload(wheelSched{New(0)}, seed)
		b := driveWorkload(wheelSched{New(0)}, seed)
		if len(a) != len(b) {
			t.Fatalf("seed %d: replay lengths differ: %d vs %d", seed, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("seed %d: replay diverged at %d: %s vs %s", seed, i, a[i], b[i])
			}
		}
	}
}
