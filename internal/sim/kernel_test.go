package sim

import (
	"testing"
	"time"
)

// ScheduleAt runs fn at the given absolute virtual time. Times in the past
// are clamped to now. Events scheduled for the same instant fire in
// scheduling order.
func (k *Kernel) ScheduleAt(at time.Duration, fn func()) Timer {
	return k.schedule(at, 0, fn, nil)
}

func TestScheduleOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.Schedule(30*time.Millisecond, func() { got = append(got, 3) })
	k.Schedule(10*time.Millisecond, func() { got = append(got, 1) })
	k.Schedule(20*time.Millisecond, func() { got = append(got, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("final time %v", k.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	k := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.Schedule(5*time.Millisecond, func() { got = append(got, i) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("simultaneous events must fire in scheduling order: %v", got)
		}
	}
}

func TestNegativeDelayClampsToNow(t *testing.T) {
	k := New(1)
	fired := false
	k.Schedule(-time.Second, func() { fired = true })
	k.Run()
	if !fired || k.Now() != 0 {
		t.Fatalf("fired=%v now=%v", fired, k.Now())
	}
}

func TestCancel(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.Schedule(time.Millisecond, func() { fired = true })
	if !tm.Pending() {
		t.Fatal("timer should be pending")
	}
	if !tm.Cancel() {
		t.Fatal("cancel should report pending=true")
	}
	if tm.Cancel() {
		t.Fatal("second cancel should report false")
	}
	k.Run()
	if fired {
		t.Fatal("cancelled timer fired")
	}
	if tm.Pending() {
		t.Fatal("cancelled timer still pending")
	}
}

func TestCancelAfterFire(t *testing.T) {
	k := New(1)
	tm := k.Schedule(time.Millisecond, func() {})
	k.Run()
	if tm.Pending() {
		t.Fatal("fired timer still pending")
	}
	if tm.Cancel() {
		t.Fatal("cancel after fire should report false")
	}
}

func TestNilTimerSafe(t *testing.T) {
	var tm Timer
	if tm.Cancel() || tm.Pending() {
		t.Fatal("the zero timer must be inert")
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	k := New(1)
	count := 0
	var rec func()
	rec = func() {
		count++
		if count < 5 {
			k.Schedule(time.Millisecond, rec)
		}
	}
	k.Schedule(0, rec)
	k.Run()
	if count != 5 {
		t.Fatalf("count = %d", count)
	}
	if k.Now() != 4*time.Millisecond {
		t.Errorf("now = %v", k.Now())
	}
}

func TestRunUntil(t *testing.T) {
	k := New(1)
	var fired []time.Duration
	for _, d := range []time.Duration{1, 2, 3, 4, 5} {
		d := d * time.Second
		k.Schedule(d, func() { fired = append(fired, d) })
	}
	k.RunUntil(3 * time.Second)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if k.Now() != 3*time.Second {
		t.Errorf("now = %v", k.Now())
	}
	// Remaining events still fire later.
	k.RunFor(10 * time.Second)
	if len(fired) != 5 {
		t.Fatalf("after RunFor fired %d, want 5", len(fired))
	}
	if k.Now() != 13*time.Second {
		t.Errorf("now = %v after RunFor", k.Now())
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	k := New(1)
	k.RunUntil(time.Minute)
	if k.Now() != time.Minute {
		t.Errorf("now = %v", k.Now())
	}
}

func TestScheduleAtPastClamps(t *testing.T) {
	k := New(1)
	k.Schedule(time.Second, func() {})
	k.Run()
	fired := time.Duration(-1)
	k.ScheduleAt(0, func() { fired = k.Now() })
	k.Run()
	if fired != time.Second {
		t.Fatalf("past event fired at %v, want clamp to %v", fired, time.Second)
	}
}

func TestStreamsDeterministicAndIndependent(t *testing.T) {
	k1 := New(77)
	k2 := New(77)
	s1 := k1.Stream(5)
	s2 := k2.Stream(5)
	for i := 0; i < 20; i++ {
		if s1.Uint64() != s2.Uint64() {
			t.Fatal("same seed+label must produce identical streams")
		}
	}
	a := New(77).Stream(1)
	b := New(77).Stream(2)
	same := 0
	for i := 0; i < 50; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("streams for different labels look correlated: %d matches", same)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func(seed int64) []time.Duration {
		k := New(seed)
		rng := k.Stream(0)
		var log []time.Duration
		var step func()
		n := 0
		step = func() {
			log = append(log, k.Now())
			n++
			if n < 50 {
				k.Schedule(time.Duration(rng.Intn(1000))*time.Microsecond, step)
			}
		}
		k.Schedule(0, step)
		k.Run()
		return log
	}
	a, b := run(9), run(9)
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPendingCount(t *testing.T) {
	k := New(1)
	k.Schedule(time.Second, func() {})
	tm := k.Schedule(2*time.Second, func() {})
	if k.Pending() != 2 {
		t.Fatalf("pending = %d", k.Pending())
	}
	tm.Cancel()
	k.Run()
	if k.Pending() != 0 {
		t.Fatalf("pending after run = %d", k.Pending())
	}
	if k.Executed() != 1 {
		t.Fatalf("executed = %d, cancelled event must not count", k.Executed())
	}
}

func TestNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Schedule(0, nil)
}
