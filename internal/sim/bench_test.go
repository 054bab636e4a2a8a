package sim

import (
	"testing"
	"time"
)

// Kernel micro-benchmarks: the events/sec and allocs/op numbers these
// report are the substrate half of the EXPERIMENTS.md scale table (the
// other half is the end-to-end scenario benchmarks in the repo root).
// CI runs them with -benchtime=1x as a smoke job on every main build.

// benchEvents reports throughput in events per wall-clock second.
func benchEvents(b *testing.B, n int) {
	b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkKernelScheduleFire measures the closure one-shot path: one
// Schedule plus one delivery per event, batched like a protocol tick.
func BenchmarkKernelScheduleFire(b *testing.B) {
	k := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		batch := 1024
		if r := b.N - done; r < batch {
			batch = r
		}
		for i := 0; i < batch; i++ {
			k.Schedule(time.Duration(i%64)*time.Millisecond, fn)
		}
		_ = k.Run()
		done += batch
	}
	benchEvents(b, b.N)
}

// BenchmarkKernelPost measures the pooled closure-free dispatch path that
// netsim uses per datagram; steady state allocates nothing.
func BenchmarkKernelPost(b *testing.B) {
	k := New(1)
	h := func(interface{}) {}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		batch := 1024
		if r := b.N - done; r < batch {
			batch = r
		}
		for i := 0; i < batch; i++ {
			k.Post(time.Duration(10+i%50)*time.Millisecond, h, nil)
		}
		_ = k.Run()
		done += batch
	}
	benchEvents(b, b.N)
}

// BenchmarkKernelPeriodic measures the recurring-timer path: 64 periodic
// timers (a keep-alive population in miniature) delivering b.N ticks.
func BenchmarkKernelPeriodic(b *testing.B) {
	k := New(1)
	fn := func() {}
	const timers = 64
	for i := 0; i < timers; i++ {
		d := time.Duration(i+1) * time.Millisecond
		k.SchedulePeriodic(d, d, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := k.Executed()
	for k.Executed()-start < uint64(b.N) {
		k.RunFor(100 * time.Millisecond)
	}
	benchEvents(b, b.N)
}

// BenchmarkKernelCancelChurn measures the schedule-then-cancel pattern of
// protocol timers (lookups, courtships): half the events never fire.
func BenchmarkKernelCancelChurn(b *testing.B) {
	k := New(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		batch := 1024
		if r := b.N - done; r < batch {
			batch = r
		}
		for i := 0; i < batch; i += 2 {
			keep := k.Schedule(time.Duration(i%40)*time.Millisecond, fn)
			drop := k.Schedule(time.Duration(i%40+1)*time.Millisecond, fn)
			drop.Cancel()
			_ = keep
		}
		_ = k.Run()
		done += batch
	}
	benchEvents(b, b.N)
}

// BenchmarkKernelMixed approximates a simulation tick mix: mostly pooled
// datagram deliveries, some one-shot protocol timers, a slice cancelled,
// against a standing population of periodic maintenance timers.
func BenchmarkKernelMixed(b *testing.B) {
	k := New(1)
	fn := func() {}
	h := func(interface{}) {}
	var periodics []Timer
	for i := 0; i < 32; i++ {
		d := time.Duration(500+i) * time.Millisecond
		periodics = append(periodics, k.SchedulePeriodic(d, d, fn))
	}
	b.ReportAllocs()
	b.ResetTimer()
	done := 0
	for done < b.N {
		batch := 1024
		if r := b.N - done; r < batch {
			batch = r
		}
		for i := 0; i < batch; i++ {
			switch i % 10 {
			case 0, 1:
				tm := k.Schedule(time.Duration(i%100)*time.Millisecond, fn)
				if i%20 == 0 {
					tm.Cancel()
				}
			default:
				k.Post(time.Duration(10+i%50)*time.Millisecond, h, nil)
			}
		}
		k.RunFor(200 * time.Millisecond)
		done += batch
	}
	// Stop the maintenance population before the final drain: Run would
	// otherwise re-queue the periodic timers forever.
	for _, tm := range periodics {
		tm.Cancel()
	}
	_ = k.Run()
	benchEvents(b, b.N)
}

// BenchmarkKernelStanding holds the queue at the depth a simulation runs
// at: a bulk-built N=2000 world with the DHT attached keeps about 17 000
// events pending after 20 virtual s. 16 384 periodic timers with periods
// spread over 1–2 s each post one datagram delivery 10–59 ms out when
// they fire, so about 16 900 events stand in the queue.
func BenchmarkKernelStanding(b *testing.B) {
	k := New(1)
	h := func(interface{}) {}
	sent := 0
	fn := func() {
		k.Post(time.Duration(10+sent%50)*time.Millisecond, h, nil)
		sent++
	}
	const timers = 1 << 14
	for i := 0; i < timers; i++ {
		d := time.Second + time.Duration(i)*61*time.Microsecond
		k.SchedulePeriodic(d, d, fn)
	}
	k.RunFor(2 * time.Second) // every timer has fired once: the standing depth
	b.ReportAllocs()
	b.ResetTimer()
	start := k.Executed()
	for k.Executed()-start < uint64(b.N) {
		k.RunFor(10 * time.Millisecond)
	}
	b.ReportMetric(float64(k.Pending()), "pending")
	benchEvents(b, b.N)
}
