package netsim

import (
	"testing"
	"time"

	"treep/internal/sim"
)

// WithLatency sets the latency model (default: Uniform 10–60 ms, roughly a
// wide-area mix).
func WithLatency(m LatencyModel) Option { return func(n *Network) { n.latency = m } }

// WithMTU sets the maximum datagram size in bytes (0 disables the check).
func WithMTU(mtu int) Option { return func(n *Network) { n.mtu = mtu } }

type rec struct {
	from    Addr
	payload interface{}
	size    int
	at      time.Duration
}

func setup(t *testing.T, opts ...Option) (*sim.Kernel, *Network, Addr, Addr, *[]rec) {
	t.Helper()
	k := sim.New(1)
	n := New(k, opts...)
	var got []rec
	a := n.Attach(func(from Addr, p interface{}, size int) {})
	b := n.Attach(func(from Addr, p interface{}, size int) {
		got = append(got, rec{from, p, size, k.Now()})
	})
	return k, n, a, b, &got
}

func TestDelivery(t *testing.T) {
	k, n, a, b, got := setup(t, WithLatency(FixedLatency(5*time.Millisecond)))
	n.Send(a, b, "hello", 5)
	k.Run()
	if len(*got) != 1 {
		t.Fatalf("delivered %d, want 1", len(*got))
	}
	r := (*got)[0]
	if r.from != a || r.payload != "hello" || r.size != 5 {
		t.Fatalf("bad delivery %+v", r)
	}
	if r.at != 5*time.Millisecond {
		t.Fatalf("arrival at %v, want 5ms", r.at)
	}
	s := n.Stats()
	if s.Sent != 1 || s.Delivered != 1 || s.Bytes != 5 {
		t.Fatalf("stats %+v", s)
	}
}

func TestSendToUnknownAddr(t *testing.T) {
	k, n, a, _, _ := setup(t)
	n.Send(a, Addr(9999), "x", 1)
	k.Run()
	if s := n.Stats(); s.LostDead != 1 || s.Delivered != 0 {
		t.Fatalf("stats %+v", s)
	}
}

func TestKillStopsDelivery(t *testing.T) {
	k, n, a, b, got := setup(t)
	n.Kill(b)
	n.Send(a, b, "x", 1)
	k.Run()
	if len(*got) != 0 {
		t.Fatal("dead endpoint received datagram")
	}
	if !n.Alive(a) || n.Alive(b) {
		t.Fatal("liveness flags wrong")
	}
	// Revive restores delivery.
	n.Revive(b)
	n.Send(a, b, "y", 1)
	k.Run()
	if len(*got) != 1 {
		t.Fatal("revived endpoint should receive")
	}
}

func TestKillDropsInFlight(t *testing.T) {
	k, n, a, b, got := setup(t, WithLatency(FixedLatency(10*time.Millisecond)))
	n.Send(a, b, "x", 1)
	// Kill while the datagram is in flight.
	k.Schedule(5*time.Millisecond, func() { n.Kill(b) })
	k.Run()
	if len(*got) != 0 {
		t.Fatal("in-flight datagram delivered to endpoint killed before arrival")
	}
	if s := n.Stats(); s.LostDead != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestLossRate(t *testing.T) {
	k := sim.New(2)
	n := New(k, WithLoss(0.5), WithLatency(FixedLatency(time.Millisecond)))
	delivered := 0
	a := n.Attach(func(Addr, interface{}, int) {})
	b := n.Attach(func(Addr, interface{}, int) { delivered++ })
	const total = 2000
	for i := 0; i < total; i++ {
		n.Send(a, b, i, 8)
	}
	k.Run()
	if delivered < total/2-150 || delivered > total/2+150 {
		t.Fatalf("delivered %d of %d at 50%% loss", delivered, total)
	}
	s := n.Stats()
	if s.LostRandom+uint64(delivered) != total {
		t.Fatalf("loss accounting: %+v delivered=%d", s, delivered)
	}
}

func TestMTU(t *testing.T) {
	k, n, a, b, got := setup(t, WithMTU(100))
	n.Send(a, b, "big", 101)
	n.Send(a, b, "ok", 100)
	k.Run()
	if len(*got) != 1 || (*got)[0].payload != "ok" {
		t.Fatalf("MTU filtering failed: %+v", *got)
	}
}

func TestTraceHook(t *testing.T) {
	k := sim.New(1)
	var events []TraceEvent
	n := New(k, WithTrace(func(e TraceEvent) { events = append(events, e) }), WithLatency(FixedLatency(0)))
	a := n.Attach(func(Addr, interface{}, int) {})
	b := n.Attach(func(Addr, interface{}, int) {})
	n.Send(a, b, "x", 1)
	k.Run()
	n.Kill(b)
	n.Send(a, b, "y", 1)
	k.Run()
	// Three events: x sent, y sent, y dropped-dead at arrival time.
	if len(events) != 3 {
		t.Fatalf("trace events %d, want 3: %+v", len(events), events)
	}
	if events[0].Dropped || events[1].Dropped {
		t.Error("send-time events should not be dropped")
	}
	if !events[2].Dropped || events[2].Reason != "dead" {
		t.Errorf("arrival event should be dropped dead: %+v", events[2])
	}
}

func TestSetHandler(t *testing.T) {
	k := sim.New(1)
	n := New(k, WithLatency(FixedLatency(0)))
	a := n.Attach(func(Addr, interface{}, int) {})
	b := n.Attach(func(Addr, interface{}, int) { t.Fatal("old handler invoked") })
	hit := false
	n.SetHandler(b, func(Addr, interface{}, int) { hit = true })
	n.Send(a, b, "x", 1)
	k.Run()
	if !hit {
		t.Fatal("new handler not invoked")
	}
}

func TestAttachNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(sim.New(1)).Attach(nil)
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		k := sim.New(42)
		n := New(k, WithLoss(0.2))
		var arrivals []time.Duration
		a := n.Attach(func(Addr, interface{}, int) {})
		b := n.Attach(func(Addr, interface{}, int) { arrivals = append(arrivals, k.Now()) })
		for i := 0; i < 100; i++ {
			n.Send(a, b, i, 4)
		}
		k.Run()
		return arrivals
	}
	r1, r2 := run(), run()
	if len(r1) != len(r2) {
		t.Fatal("non-deterministic delivery count")
	}
	for i := range r1 {
		if r1[i] != r2[i] {
			t.Fatal("non-deterministic arrival times")
		}
	}
}
