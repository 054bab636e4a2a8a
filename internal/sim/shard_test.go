package sim

import (
	"hash/fnv"
	"testing"
	"time"
)

// shardHarness is a miniature traffic generator over the sharded
// engine: M endpoints, partitioned across shards by ID range exactly
// like simrt partitions nodes, each driving a periodic timer that sends
// a datagram to a pseudo-random peer with latency ≥ the lookahead. The
// per-endpoint receive log digest is the determinism oracle: it is
// sensitive to the order in which same-instant datagrams arrive, which
// is exactly what the barrier merge must keep shard-count-invariant.
type shardHarness struct {
	s    *Sharded
	m    int
	sent []uint64 // per-endpoint send seq
	dig  []uint64 // per-endpoint receive-order digest
	rcvd []int
}

func shardOf(endpoint uint64, shards int) int {
	if shards == 1 {
		return 0
	}
	stride := ^uint64(0)/uint64(shards) + 1
	return int(endpoint / stride)
}

func newShardHarness(seed int64, shards, m int, serial bool) *shardHarness {
	const lambda = 10 * time.Millisecond
	h := &shardHarness{
		s:    NewSharded(seed, shards, lambda, serial),
		m:    m,
		sent: make([]uint64, m),
		dig:  make([]uint64, m),
		rcvd: make([]int, m),
	}
	h.s.SetExchange(func(shard int, k *Kernel, ev XEvent) {
		k.Post(ev.At-k.Now(), h.receive, ev)
	})
	for i := 0; i < m; i++ {
		ep := uint64(i) * (^uint64(0)/uint64(m) + 1) // spread across ID space
		sh := shardOf(ep, shards)
		k := h.s.Shard(sh)
		rng := k.Stream(ep)
		idx := i
		interval := time.Duration(1+idx%7) * 3 * time.Millisecond
		k.SchedulePeriodic(interval, interval, func() {
			dest := rng.Intn(h.m)
			delay := lambda + time.Duration(rng.Int63n(int64(40*time.Millisecond)))
			h.send(idx, dest, delay)
		})
	}
	return h
}

func (h *shardHarness) endpointID(i int) uint64 {
	return uint64(i) * (^uint64(0)/uint64(h.m) + 1)
}

func (h *shardHarness) send(from, to int, delay time.Duration) {
	origin := h.endpointID(from)
	os := shardOf(origin, h.s.Shards())
	ds := shardOf(h.endpointID(to), h.s.Shards())
	seq := h.sent[from]
	h.sent[from]++
	h.s.Exchange(os, ds, XEvent{
		At:     h.s.Shard(os).Now() + delay,
		Origin: origin,
		Seq:    seq,
		To:     uint64(to),
		Size:   64,
	})
}

// receive folds one arrival into the destination's order-sensitive
// digest (runs on the destination shard's worker).
func (h *shardHarness) receive(arg interface{}) {
	ev := arg.(XEvent)
	to := int(ev.To)
	d := h.dig[to]
	d = d*1099511628211 ^ ev.Origin
	d = d*1099511628211 ^ ev.Seq
	d = d*1099511628211 ^ uint64(ev.At)
	h.dig[to] = d
	h.rcvd[to]++
}

func (h *shardHarness) digest() uint64 {
	f := fnv.New64a()
	var buf [8]byte
	for i := 0; i < h.m; i++ {
		for _, v := range []uint64{h.dig[i], uint64(h.rcvd[i]), h.sent[i]} {
			for b := 0; b < 8; b++ {
				buf[b] = byte(v >> (8 * b))
			}
			f.Write(buf[:])
		}
	}
	return f.Sum64()
}

// TestShardedDeterminismAcrossShardCounts is the kernel-level half of
// the equivalence oracle: the same seed must produce identical
// per-endpoint receive logs at every shard count, on workers or stepped
// through serially on one goroutine.
func TestShardedDeterminismAcrossShardCounts(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		var want uint64
		for _, shards := range []int{1, 2, 4, 8} {
			for _, serial := range []bool{false, true} {
				h := newShardHarness(seed, shards, 24, serial)
				h.s.RunFor(2 * time.Second)
				got := h.digest()
				h.s.Close()
				if shards == 1 && !serial {
					want = got
					continue
				}
				if got != want {
					t.Fatalf("seed %d: digest at %d shards (serial %v) = %#x, want %#x (1 shard)", seed, shards, serial, got, want)
				}
			}
		}
	}
}

// TestShardedRunUntilSplitInvariance checks that reaching the same
// target through many small RunUntil calls (as the scenario engine
// does) produces the same state as one big call: split points only
// subdivide epochs, they never reorder events.
func TestShardedRunUntilSplitInvariance(t *testing.T) {
	one := newShardHarness(11, 4, 16, false)
	one.s.RunFor(1 * time.Second)
	defer one.s.Close()

	many := newShardHarness(11, 4, 16, false)
	defer many.s.Close()
	rng := many.s.Stream(0xdead)
	for many.s.Now() < 1*time.Second {
		step := time.Duration(1 + rng.Int63n(int64(37*time.Millisecond)))
		target := many.s.Now() + step
		if target > 1*time.Second {
			target = 1 * time.Second
		}
		many.s.RunUntil(target)
	}
	if got, want := many.digest(), one.digest(); got != want {
		t.Fatalf("split runs digest %#x, want %#x", got, want)
	}
}

// TestShardedBarrierEdgeDelivery pins the boundary case: an event due
// exactly on an epoch barrier is delivered exactly once, at its due
// time, with the destination clock agreeing.
func TestShardedBarrierEdgeDelivery(t *testing.T) {
	const lambda = 10 * time.Millisecond
	s := NewSharded(3, 2, lambda, false)
	defer s.Close()
	var got []time.Duration
	s.SetExchange(func(shard int, k *Kernel, ev XEvent) {
		k.Post(ev.At-k.Now(), func(interface{}) {
			got = append(got, k.Now())
		}, nil)
	})
	// From the control plane at t=0, an event due exactly at λ (the
	// first barrier) and one due just past it.
	s.Exchange(0, 1, XEvent{At: lambda, Origin: 1, Seq: 0, To: 2})
	s.Exchange(0, 1, XEvent{At: lambda + time.Millisecond, Origin: 1, Seq: 1, To: 2})
	s.RunFor(50 * time.Millisecond)
	if len(got) != 2 || got[0] != lambda || got[1] != lambda+time.Millisecond {
		t.Fatalf("deliveries at %v, want [%v %v]", got, lambda, lambda+time.Millisecond)
	}
	if s.Executed() != 2 {
		t.Fatalf("executed %d, want 2", s.Executed())
	}
}

// TestShardedInterrupt checks the wall-clock budget hook: Interrupt
// stops the run at a barrier short of the target, for good.
func TestShardedInterrupt(t *testing.T) {
	h := newShardHarness(5, 2, 8, false)
	defer h.s.Close()
	h.s.Interrupt()
	for range 2 {
		h.s.RunFor(time.Second)
		if h.s.Now() != 0 || h.s.Executed() != 0 {
			t.Fatalf("interrupted before start but advanced to %v, %d events", h.s.Now(), h.s.Executed())
		}
	}
}
