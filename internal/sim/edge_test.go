package sim

import (
	"fmt"
	"testing"
	"time"
	"unsafe"
)

// Edge cases of the kernel: deadline boundaries, past scheduling against
// an advanced clock, pooled-record reuse through stale Timer handles,
// periodic semantics, and cancels that leave nothing queued.

func TestRunUntilSimultaneousAtDeadline(t *testing.T) {
	k := New(1)
	deadline := 50 * time.Millisecond
	var fired []int
	for i := 0; i < 5; i++ {
		i := i
		k.Schedule(deadline, func() { fired = append(fired, i) })
	}
	// An event at the deadline that schedules another event at the same
	// instant: the new event is also ≤ deadline and must run too.
	k.Schedule(deadline, func() {
		k.Schedule(0, func() { fired = append(fired, 99) })
	})
	k.Schedule(deadline+1, func() { fired = append(fired, -1) })
	k.RunUntil(deadline)
	want := []int{0, 1, 2, 3, 4, 99}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
	if k.Now() != deadline {
		t.Errorf("now = %v, want %v", k.Now(), deadline)
	}
	// The event one nanosecond past the deadline is still pending.
	if k.Pending() != 1 {
		t.Errorf("pending = %d, want 1", k.Pending())
	}
}

func TestScheduleAtPastAfterIdleAdvance(t *testing.T) {
	k := New(1)
	// An idle RunUntil advances the clock far ahead of any event.
	k.RunUntil(10 * time.Minute)
	fired := time.Duration(-1)
	k.ScheduleAt(time.Second, func() { fired = k.Now() }) // deep in the past
	k.Run()
	if fired != 10*time.Minute {
		t.Fatalf("past event fired at %v, want clamp to %v", fired, 10*time.Minute)
	}
}

func TestCancelThenRescheduleReusesRecord(t *testing.T) {
	k := New(1)
	aFired, bFired := false, false
	a := k.Schedule(time.Second, func() { aFired = true })
	if !a.Cancel() {
		t.Fatal("first cancel must report pending")
	}
	// The cancelled record was recycled; the next schedule reuses it.
	b := k.Schedule(time.Second, func() { bFired = true })
	if a.ev != b.ev {
		t.Log("pool did not hand back the same record; generation check untestable here")
	}
	// The stale handle must be inert against the new occupant.
	if a.Cancel() {
		t.Fatal("stale handle cancelled the record's new occupant")
	}
	if a.Pending() {
		t.Fatal("stale handle reports pending")
	}
	if !b.Pending() {
		t.Fatal("new timer must be pending")
	}
	k.Run()
	if aFired || !bFired {
		t.Fatalf("aFired=%v bFired=%v, want false/true", aFired, bFired)
	}
	// And after firing, the handle for b is spent too.
	if b.Cancel() || b.Pending() {
		t.Fatal("fired timer must be spent")
	}
}

func TestFireThenRescheduleStaleHandle(t *testing.T) {
	k := New(1)
	c := k.Schedule(time.Millisecond, func() {})
	k.Run()
	dFired := false
	d := k.Schedule(time.Millisecond, func() { dFired = true }) // reuses c's record
	if c.Cancel() {
		t.Fatal("handle of a fired timer cancelled a reused record")
	}
	k.Run()
	if !dFired {
		t.Fatal("reused record's timer did not fire")
	}
	_ = d
}

// TestPeriodicFirstFiringIsItsOwn: the first firing comes after first (a
// negative first is now), and the rest at multiples of the interval after it.
func TestPeriodicFirstFiringIsItsOwn(t *testing.T) {
	k := New(1)
	var at, now []time.Duration
	k.SchedulePeriodic(100*time.Millisecond, 250*time.Millisecond, func() { at = append(at, k.Now()) })
	k.SchedulePeriodic(-time.Second, 400*time.Millisecond, func() { now = append(now, k.Now()) })
	k.RunUntil(time.Second)
	if fmt.Sprint(at) != "[100ms 350ms 600ms 850ms]" || fmt.Sprint(now) != "[0s 400ms 800ms]" {
		t.Fatalf("phased timer fired at %v, the one due now at %v", at, now)
	}
}

func TestPeriodicFiresAtMultiples(t *testing.T) {
	k := New(1)
	var at []time.Duration
	tm := k.SchedulePeriodic(250*time.Millisecond, 250*time.Millisecond, func() { at = append(at, k.Now()) })
	k.RunUntil(time.Second)
	if len(at) != 4 {
		t.Fatalf("fired %d times, want 4 (at %v)", len(at), at)
	}
	for i, a := range at {
		if want := time.Duration(i+1) * 250 * time.Millisecond; a != want {
			t.Fatalf("firing %d at %v, want %v", i, a, want)
		}
	}
	if !tm.Pending() {
		t.Fatal("periodic timer must stay pending between firings")
	}
	if !tm.Cancel() {
		t.Fatal("cancel must report pending")
	}
	k.RunUntil(2 * time.Second)
	if len(at) != 4 {
		t.Fatalf("cancelled periodic fired again: %d", len(at))
	}
}

func TestPeriodicCancelFromOwnCallback(t *testing.T) {
	k := New(1)
	count := 0
	var tm Timer
	tm = k.SchedulePeriodic(time.Millisecond, time.Millisecond, func() {
		count++
		if count == 3 {
			if !tm.Cancel() {
				t.Error("self-cancel must report pending")
			}
		}
	})
	k.RunUntil(time.Second)
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if tm.Pending() {
		t.Fatal("cancelled periodic still pending")
	}
}

func TestPeriodicFIFOAgainstOneShots(t *testing.T) {
	// A periodic firing at t must order before a one-shot scheduled for t
	// after the periodic's re-queue (higher sequence number), and after
	// one scheduled earlier — the same ordering as the reschedule idiom.
	k := New(1)
	var order []string
	k.SchedulePeriodic(10*time.Millisecond, 10*time.Millisecond, func() { order = append(order, "p") })
	k.Schedule(10*time.Millisecond, func() { order = append(order, "a") })
	k.RunUntil(10 * time.Millisecond)
	want := []string{"p", "a"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v, want %v", order, want)
		}
	}
}

func TestPendingCountsLiveEventsOnly(t *testing.T) {
	k := New(1)
	k.Schedule(time.Second, func() {})
	tm := k.Schedule(2*time.Second, func() {})
	k.SchedulePeriodic(time.Second, time.Second, func() {})
	if k.Pending() != 3 {
		t.Fatalf("pending = %d, want 3", k.Pending())
	}
	tm.Cancel()
	if k.Pending() != 2 {
		t.Fatalf("pending after cancel = %d, want 2 (live events only)", k.Pending())
	}
}

func TestCancelLeavesNothingQueued(t *testing.T) {
	k := New(1)
	far := 24 * time.Hour
	var timers []Timer
	fired := 0
	for i := 0; i < 100; i++ {
		timers = append(timers, k.Schedule(far+time.Duration(i)*time.Second, func() { fired++ }))
	}
	if got := len(k.q); got != 100 {
		t.Fatalf("queue holds %d, want 100", got)
	}
	// A cancel takes its record out of the queue at once.
	for i := 0; i < 80; i++ {
		timers[i].Cancel()
	}
	if got := len(k.q); got != 20 {
		t.Fatalf("queue holds %d entries for 20 live", got)
	}
	if k.Pending() != 20 {
		t.Fatalf("pending = %d, want 20", k.Pending())
	}
	k.Run()
	if fired != 20 {
		t.Fatalf("fired %d, want 20", fired)
	}
}

func TestPostDispatchOrderAndReuse(t *testing.T) {
	k := New(1)
	var got []int
	h := func(arg interface{}) { got = append(got, arg.(int)) }
	k.Post(2*time.Millisecond, h, 2)
	k.Post(time.Millisecond, h, 1)
	k.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	k.Post(3*time.Millisecond, h, 4) // same instant: after the earlier schedule
	k.Run()
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSteadyStatePostDoesNotAllocate(t *testing.T) {
	k := New(1)
	h := func(interface{}) {}
	// Warm the pool.
	for i := 0; i < 64; i++ {
		k.Post(time.Duration(i)*time.Millisecond, h, nil)
	}
	k.Run()
	avg := testing.AllocsPerRun(100, func() {
		for i := 0; i < 32; i++ {
			k.Post(time.Duration(i)*time.Millisecond, h, nil)
		}
		_ = k.Run()
	})
	if avg > 1 {
		t.Fatalf("steady-state Post allocates %.1f objects per batch, want ~0", avg)
	}
}

// TestSteadyStateTimersDoNotAllocate: a timer handle is a value, so
// scheduling and cancelling, and scheduling a one-shot that fires, reuse
// pooled records and allocate nothing once the pool is warm.
func TestSteadyStateTimersDoNotAllocate(t *testing.T) {
	k := New(1)
	fn := func() {}
	for i := 0; i < 64; i++ {
		k.Schedule(time.Duration(i)*time.Millisecond, fn)
	}
	k.Run()
	if avg := testing.AllocsPerRun(100, func() {
		k.Schedule(time.Second, fn).Cancel()
	}); avg != 0 {
		t.Fatalf("Schedule + Cancel allocates %.1f objects, want 0", avg)
	}
	if avg := testing.AllocsPerRun(100, func() {
		k.Schedule(time.Millisecond, fn)
		_ = k.Run()
	}); avg != 0 {
		t.Fatalf("a fired one-shot allocates %.1f objects, want 0", avg)
	}
	if size := unsafe.Sizeof(event{}); size > 96 {
		t.Fatalf("an event record is %d bytes, over the 96-byte size class", size)
	}
}

// TestEventFitsItsSizeClass guards the queue's footprint: an event record
// of 80 bytes fills its allocator size class, and one more word costs
// every pending and pooled event 16 bytes (the 96-byte class). Growing the
// record is allowed; doing it without noticing is not.
func TestEventFitsItsSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 80 {
		t.Fatalf("an event record is %d bytes, past the 80-byte size class (see comment)", size)
	}
}

// TestGatedTimers: a shut gate swallows one-shot and periodic firings
// alike (the periodic one stays queued), and reopening it lets the later
// firings through.
func TestGatedTimers(t *testing.T) {
	k := New(1)
	open := true
	var once, ticks int
	k.ScheduleGated(&open, 10*time.Millisecond, func() { once++ })
	k.ScheduleGated(&open, 30*time.Millisecond, func() { once++ })
	p := k.SchedulePeriodicGated(&open, 10*time.Millisecond, 10*time.Millisecond, func() { ticks++ })
	k.RunUntil(15 * time.Millisecond)
	open = false
	k.RunUntil(35 * time.Millisecond)
	if once != 1 || ticks != 1 || !p.Pending() {
		t.Fatalf("behind a shut gate: once=%d ticks=%d pending=%v, want 1, 1, true", once, ticks, p.Pending())
	}
	open = true
	k.RunUntil(45 * time.Millisecond)
	if once != 1 || ticks != 2 {
		t.Fatalf("after reopening: once=%d ticks=%d, want 1, 2", once, ticks)
	}
}

func TestStreamCachedAcrossCalls(t *testing.T) {
	k := New(42)
	a := k.Stream(7)
	b := k.Stream(7)
	if a != b {
		t.Fatal("same label must return the same cached stream")
	}
	if k.Stream(8) == a {
		t.Fatal("distinct labels must not share a stream")
	}
}
