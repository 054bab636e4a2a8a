package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// This file proves the kernel's queue is observationally identical to the
// single closure-per-event binary heap the kernel started as: for the same
// choices, the same workload of closures, posts, gated and periodic timers,
// cancels and gate flips fires in exactly the same order at the same
// virtual times, and every cancel, Next and Pending answers alike.
// refKernel below is that original heap, kept as the ordering oracle.

type refEvent struct {
	at        time.Duration
	seq       uint64
	fn        func()
	oneShot   bool
	fired     bool
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
	live   int
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

// min drops cancelled events off the top and returns the earliest live one.
func (k *refKernel) min() *refEvent {
	for k.events.Len() > 0 {
		if ev := k.events[0]; !ev.cancelled {
			return ev
		}
		heap.Pop(&k.events)
	}
	return nil
}

// due reports whether a live event is queued at or before t.
func (k *refKernel) due(t time.Duration) bool {
	ev := k.min()
	return ev != nil && ev.at <= t
}

// runUntil fires events up to deadline, then moves the clock to it.
func (k *refKernel) runUntil(deadline time.Duration) {
	for k.due(deadline) {
		ev := heap.Pop(&k.events).(*refEvent)
		k.now = ev.at
		ev.fired = true
		if ev.oneShot {
			k.live--
		}
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
// schedule returns a cancel function; a gate may be nil, and period > 0
// asks for a periodic timer.
type testSched interface {
	now() time.Duration
	schedule(gate *bool, d, period time.Duration, fn func()) func() bool
	post(d time.Duration, h func(interface{}), arg interface{})
	runUntil(t time.Duration)
	next() (time.Duration, bool)
	pending() int
}

type kernelSched struct{ k *Kernel }

func (s kernelSched) now() time.Duration { return s.k.Now() }
func (s kernelSched) schedule(gate *bool, d, period time.Duration, fn func()) func() bool {
	var tm Timer
	switch {
	case period > 0 && gate == nil:
		tm = s.k.SchedulePeriodic(d, period, fn)
	case period > 0:
		tm = s.k.SchedulePeriodicGated(gate, d, period, fn)
	case gate == nil:
		tm = s.k.Schedule(d, fn)
	default:
		tm = s.k.ScheduleGated(gate, d, fn)
	}
	return tm.Cancel
}
func (s kernelSched) post(d time.Duration, h func(interface{}), arg interface{}) {
	s.k.Post(d, h, arg)
}
func (s kernelSched) runUntil(t time.Duration)    { s.k.RunUntil(t) }
func (s kernelSched) next() (time.Duration, bool) { return s.k.Next() }
func (s kernelSched) pending() int                { return s.k.Pending() }

type refSched struct{ k *refKernel }

func (s refSched) now() time.Duration { return s.k.now }

// schedule wraps fn behind its gate, read when the event comes due. A
// periodic runs fn, then re-queues with a fresh sequence number — the exact
// ordering of the schedule-inside-the-callback idiom the kernel API
// replaced.
func (s refSched) schedule(gate *bool, d, period time.Duration, fn func()) func() bool {
	k := s.k
	k.live++
	gated := func() {
		if gate == nil || *gate {
			fn()
		}
	}
	if period <= 0 {
		ev := k.schedule(d, gated)
		ev.oneShot = true
		return func() bool {
			if ev.cancelled || ev.fired {
				return false
			}
			ev.cancelled = true
			k.live--
			return true
		}
	}
	cancelled := false
	var cur *refEvent
	var tick func()
	tick = func() {
		gated()
		if !cancelled {
			cur = k.schedule(period, tick)
		}
	}
	cur = k.schedule(d, tick)
	return func() bool {
		if cancelled {
			return false
		}
		cancelled = true
		cur.cancelled = true
		k.live--
		return true
	}
}
func (s refSched) post(d time.Duration, h func(interface{}), arg interface{}) {
	s.k.live++
	s.k.schedule(d, func() { h(arg) }).oneShot = true
}
func (s refSched) runUntil(t time.Duration)    { s.k.runUntil(t) }
func (s refSched) next() (time.Duration, bool) { return s.k.next() }
func (s refSched) pending() int                { return s.k.live }

// chooser supplies the workload's choices: a seeded generator, or the
// fuzzer's bytes. done ends the top-level loop.
type chooser interface {
	Intn(n int) int
	done() bool
}

// rngChooser makes a fixed number of top-level steps from a seeded stream.
type rngChooser struct {
	*rand.Rand
	steps int
}

func (c *rngChooser) done() bool { c.steps--; return c.steps < 0 }

// byteChooser reads one byte a choice (two past 256 options) and answers
// 0 once the bytes run out.
type byteChooser struct{ b []byte }

func (c *byteChooser) Intn(n int) int {
	v := 0
	for w := 1; w < n; w <<= 8 {
		if len(c.b) > 0 {
			v = v<<8 | int(c.b[0])
			c.b = c.b[1:]
		}
	}
	return v % n
}
func (c *byteChooser) done() bool { return len(c.b) == 0 }

// workload is the state of one driveWorkload run. All choices flow from one
// chooser whose draw order depends only on the event fire order, so two
// schedulers produce identical logs iff they order events identically.
type workload struct {
	s        testSched
	c        chooser
	log      []string
	cancels  []func() bool
	gates    [2]bool
	spawned  int
	draining bool
}

// Delays straddle sub-microsecond, millisecond, second and hour scales;
// the round ones make distinct timers fall due at the same instant, which
// is where the sequence tie-break decides the order.
var workloadDelays = []time.Duration{
	0, 1, time.Microsecond, 37 * time.Microsecond,
	time.Millisecond, 1 << 20, 5 * time.Millisecond,
	271 * time.Millisecond, 900 * time.Millisecond,
	3 * time.Second, 67 * time.Second, 2 * time.Minute,
	3 * time.Hour, 26 * time.Hour,
}

// maxSpawned bounds the events a workload creates, and maxLog the lines
// its top-level loop runs to, so that no input runs for long.
const (
	maxSpawned = 3000
	maxLog     = 50000
)

func (w *workload) logf(format string, args ...interface{}) {
	w.log = append(w.log, fmt.Sprintf(format, args...))
}

// probe logs the earliest pending time and the live count, so the
// equivalence test holds Next to the reference heap's scan after every
// step. Asking must fire nothing and leave the clock where it was.
func (w *workload) probe() {
	n, now := len(w.log), w.s.now()
	at, ok := w.s.next()
	if len(w.log) != n || w.s.now() != now {
		w.logf("next fired an event or moved the clock")
	}
	w.logf("next=%d,%v pending=%d", at, ok, w.s.pending())
}

// spawn schedules one event: a post, or a closure one-shot or periodic,
// ungated or behind one of the two gates.
func (w *workload) spawn() {
	if w.spawned >= maxSpawned || w.draining {
		return
	}
	w.spawned++
	id := w.spawned
	d := workloadDelays[w.c.Intn(len(workloadDelays))]
	if w.c.Intn(4) == 0 {
		d += time.Duration(w.c.Intn(5000)) * time.Microsecond
	}
	kind := w.c.Intn(16)
	if kind < 4 {
		w.s.post(d, w.onPost, id)
		return
	}
	var gate *bool
	if g := w.c.Intn(3); g < 2 {
		gate = &w.gates[g]
	}
	if kind < 6 {
		self := len(w.cancels)
		w.cancels = append(w.cancels, w.s.schedule(gate, d, max(d, 700*time.Millisecond), func() {
			w.fired(id)
			if w.c.Intn(8) == 0 {
				w.logf("self-cancel %d=%v", id, w.cancels[self]())
			}
		}))
		return
	}
	w.cancels = append(w.cancels, w.s.schedule(gate, d, 0, func() { w.fired(id) }))
}

func (w *workload) onPost(arg interface{}) { w.fired(arg.(int)) }

// fired logs one delivery and makes the callback's own choices: spawn up
// to two events, maybe cancel one.
func (w *workload) fired(id int) {
	w.logf("%d@%d", id, w.s.now())
	for n := w.c.Intn(3); n > 0; n-- {
		w.spawn()
	}
	if len(w.cancels) > 0 && w.c.Intn(3) == 0 {
		i := w.c.Intn(len(w.cancels))
		w.logf("cancel %d=%v", i, w.cancels[i]())
	}
	w.probe()
}

// driveWorkload runs the chooser's workload on the given scheduler and
// returns the log: "id@virtualtime" per delivery, every cancel's answer,
// where each deadline-bounded run left the clock, and Next and Pending
// after every step.
func driveWorkload(s testSched, c chooser) []string {
	w := &workload{s: s, c: c, gates: [2]bool{true, true}}
	for i := 0; i < 50; i++ {
		w.spawn()
	}
	w.probe()
	// Deadline-bounded runs with awkward boundaries and gate flips, then
	// cancel everything still live and drain the far future.
	steps := []time.Duration{13 * time.Millisecond, 900 * time.Millisecond, 6*time.Second + 13*time.Millisecond}
	for !c.done() && len(w.log) < maxLog {
		switch c.Intn(7) {
		case 0:
			w.spawn()
		case 1:
			g := c.Intn(2)
			w.gates[g] = !w.gates[g]
		default:
			to := s.now() + steps[c.Intn(len(steps))]
			s.runUntil(to)
			w.logf("ran to %d: now=%d", to, s.now())
		}
		w.probe()
	}
	w.draining = true
	for i, cancel := range w.cancels {
		w.logf("cancel %d=%v", i, cancel())
	}
	w.probe()
	s.runUntil(40 * time.Hour)
	w.logf("drained: now=%d", s.now())
	w.probe()
	return w.log
}

// sameLog fails the test at the first line where two logs part.
func sameLog(t *testing.T, what string, got, want []string) {
	t.Helper()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("%s: logs diverge at line %d: kernel %s, reference %s", what, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: kernel logged %d lines, reference %d", what, len(got), len(want))
	}
}

// TestKernelMatchesReference is the kernel's determinism contract:
// identical choices must produce identical logs on the kernel and on the
// reference heap.
func TestKernelMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		got := driveWorkload(kernelSched{New(0)}, &rngChooser{rand.New(rand.NewSource(seed)), 400})
		want := driveWorkload(refSched{&refKernel{}}, &rngChooser{rand.New(rand.NewSource(seed)), 400})
		if len(got) < 1000 {
			t.Fatalf("seed %d: a %d-line log exercises little", seed, len(got))
		}
		sameLog(t, fmt.Sprintf("seed %d", seed), got, want)
	}
}

// FuzzKernelMatchesReference is TestKernelMatchesReference with the
// fuzzer's bytes making every choice.
func FuzzKernelMatchesReference(f *testing.F) {
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 32; i++ {
		data := make([]byte, 64+rng.Intn(960))
		rng.Read(data)
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{2, 3, 3, 3, 1, 1, 3, 2, 0, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		got := driveWorkload(kernelSched{New(0)}, &byteChooser{data})
		want := driveWorkload(refSched{&refKernel{}}, &byteChooser{data})
		sameLog(t, "fuzz", got, want)
	})
}

// TestFuzzDeterministicReplay replays a random workload twice on the
// kernel; the logs must match exactly.
func TestFuzzDeterministicReplay(t *testing.T) {
	for seed := int64(10); seed <= 14; seed++ {
		a := driveWorkload(kernelSched{New(0)}, &rngChooser{rand.New(rand.NewSource(seed)), 400})
		b := driveWorkload(kernelSched{New(0)}, &rngChooser{rand.New(rand.NewSource(seed)), 400})
		sameLog(t, fmt.Sprintf("seed %d replay", seed), a, b)
	}
}
