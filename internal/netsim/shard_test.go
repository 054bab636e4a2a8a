package netsim

import (
	"testing"
	"time"
)

// shardOfEp spreads test endpoints round-robin over shards; any fixed
// assignment works — the determinism tests only require that the
// *digests* agree across different placements, not that the placements
// themselves match.
func shardOfEp(i, shards int) int { return i % shards }

// TestShardedDelivery checks the basic sharded datagram path: send from
// one shard, arrive on another at exactly the fixed latency, with the
// per-shard stats summing correctly.
func TestShardedDelivery(t *testing.T) {
	n := NewSharded(1, 2, WithLatency(FixedLatency(5*time.Millisecond)))
	defer n.Engine().Close()
	var got []rec
	a := n.AttachOn(0, func(from Addr, p interface{}, size int) {})
	// Handlers run mid-epoch on their shard's worker: the shard kernel's
	// clock is the authoritative "now" there (Engine.Now() is the parked
	// barrier time, which lags inside an epoch).
	b := n.AttachOn(1, func(from Addr, p interface{}, size int) {
		got = append(got, rec{from, p, size, n.Engine().Shard(1).Now()})
	})
	if n.epShard[a] != 0 || n.epShard[b] != 1 {
		t.Fatalf("placement: a on shard %d, b on shard %d", n.epShard[a], n.epShard[b])
	}
	n.Send(a, b, "hello", 5)
	n.Engine().RunFor(50 * time.Millisecond)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	r := got[0]
	if r.from != a || r.payload != "hello" || r.size != 5 || r.at != 5*time.Millisecond {
		t.Fatalf("bad delivery %+v", r)
	}
	if s := n.Stats(); s.Sent != 1 || s.Delivered != 1 || s.Bytes != 5 {
		t.Fatalf("stats %+v", s)
	}
}

// TestShardedNetworkDeterminism drives a ping-pong mesh — handlers
// resend from shard workers, the control plane injects bursts between
// runs — and requires per-endpoint arrival digests to be identical at
// every shard count, under loss and jittered latency. A traced network
// steps through its shards on one goroutine: its digests must equal the
// untraced ones, and its hook must see every send at every shard count.
func TestShardedNetworkDeterminism(t *testing.T) {
	const eps = 12
	digest := func(shards int, traced bool) [eps]uint64 {
		opts := []Option{WithLoss(0.1), WithLatency(UniformLatency{Min: 2 * time.Millisecond, Max: 20 * time.Millisecond})}
		var sends uint64
		if traced {
			opts = append(opts, WithTrace(func(e TraceEvent) { sends++ }))
		}
		n := NewSharded(7, shards, opts...)
		defer n.Engine().Close()
		defer func() {
			if sent := n.Stats().Sent; traced && sends != sent {
				t.Errorf("%d shards: the hook saw %d sends, the network counted %d", shards, sends, sent)
			}
		}()
		var dig [eps]uint64
		addrs := make([]Addr, eps)
		for i := 0; i < eps; i++ {
			i := i
			sh := shardOfEp(i, shards)
			addrs[i] = n.AttachOn(sh, func(from Addr, p interface{}, size int) {
				// Order-sensitive fold over (arrival time, sender, value):
				// any reordering of this endpoint's arrivals changes the
				// digest. The shard kernel's clock is the in-epoch "now".
				h := dig[i]
				h = (h*1099511628211 ^ uint64(from)) + uint64(n.Engine().Shard(sh).Now())
				h = h*1099511628211 ^ uint64(p.(int))
				dig[i] = h
				// Bounce a decremented token to the next endpoint; the
				// resend happens on this endpoint's shard worker.
				if v := p.(int); v > 0 {
					n.Send(addrs[i], addrs[(i+1)%eps], v-1, size)
				}
			})
		}
		for round := 0; round < 5; round++ {
			for i, a := range addrs {
				n.Send(a, addrs[(i+eps/2)%eps], 8, 16)
			}
			n.Engine().RunFor(300 * time.Millisecond)
		}
		return dig
	}
	want := digest(1, false)
	for _, shards := range []int{1, 2, 4} {
		for _, traced := range []bool{false, true} {
			if shards == 1 && !traced {
				continue
			}
			if got := digest(shards, traced); got != want {
				t.Fatalf("digest mismatch at %d shards (traced %v):\n got %v\nwant %v", shards, traced, got, want)
			}
		}
	}
}

// TestShardedNeedsFloor pins the lookahead precondition: a latency model
// that can produce zero delay cannot bound epochs, so construction must
// refuse it rather than silently losing causality.
func TestShardedNeedsFloor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero latency floor")
		}
	}()
	NewSharded(1, 2, WithLatency(FixedLatency(0)))
}
