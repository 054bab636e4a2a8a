package simrt

import (
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/netsim"
	"treep/internal/proto"
)

// TestKeepaliveComesToRest: on an overlay nobody joins or leaves, the
// keep-alive round sends one ping per active pair and re-greets nobody.
// Before PR 25 each node sent 1.44 hellos and 1.35 pings a second here,
// and 550 of the 577 pinged pairs pinged both ways (DESIGN.md §2).
func TestKeepaliveComesToRest(t *testing.T) {
	const n, window = 200, 30 * time.Second
	for _, tc := range []struct {
		name string
		cfg  core.Config
	}{{"zero", core.Config{}}, {"defaults", core.Defaults()}} {
		t.Run(tc.name, func(t *testing.T) {
			type pair struct{ from, to netsim.Addr }
			hellos, pings := 0, 0
			pinged := map[pair]bool{}
			counting := false
			trace := func(e netsim.TraceEvent) {
				if !counting || e.Dropped {
					return
				}
				switch e.Payload.(type) {
				case *proto.Hello:
					hellos++
				case *proto.Ping:
					pings++
					pinged[pair{e.From, e.To}] = true
				}
			}
			c := New(Options{N: n, Seed: 21, Bulk: true, Config: tc.cfg, NetOpts: []netsim.Option{netsim.WithTrace(trace)}})
			c.StartAll()
			c.Run(60 * time.Second)
			counting = true
			c.Run(window)

			perNodeS := func(k int) float64 { return float64(k) / n / window.Seconds() }
			if r := perNodeS(hellos); r > 0.1 {
				t.Errorf("%.2f hellos per node-second at rest, want <= 0.1", r)
			}
			if r := perNodeS(pings); r > 0.8 {
				t.Errorf("%.2f pings per node-second at rest, want <= 0.8", r)
			}
			both := 0 // ordered pairs whose reverse pinged too
			for p := range pinged {
				if pinged[pair{p.to, p.from}] {
					both++
				}
			}
			t.Logf("hellos %.2f, pings %.2f per node-second; %d of %d pinged (ordered) pairs ping both ways",
				perNodeS(hellos), perNodeS(pings), both, len(pinged))
			if tc.name == "zero" && both*10 > len(pinged) {
				t.Errorf("%d of %d pinged pairs ping both ways, want <= 10 %%", both, len(pinged))
			}
		})
	}
}

// TestKeepalivesAreOutOfLockStep: a bulk build starts every peer at t = 0,
// and each peer's keep-alive round fires at its own phase in the period,
// so one round's pings spread across the period instead of leaving at one
// instant. About 390 pings leave in a round here, 1.3 a peer. Over one 2 s
// round cut into 200 slices of 10 ms, a uniform phase puts 300/200 = 1.5
// peers' rounds in a slice on average, and ten in one slice is a Poisson
// tail below 1e-5 a slice. Ten rounds at 1.3 pings is 3.3 % of the round;
// the bound of 10 % leaves three times that for the busiest slice's peers
// to have the widest fan-out. In lock-step one slice carries them all.
func TestKeepalivesAreOutOfLockStep(t *testing.T) {
	const n, slice, maxSharePct = 300, 10 * time.Millisecond, 10
	const from = 10 * time.Second // settled: the round starting here is counted
	var perSlice [200]int
	trace := func(e netsim.TraceEvent) {
		if _, ok := e.Payload.(*proto.Ping); ok && !e.Dropped && e.At >= from && e.At < from+200*slice {
			perSlice[(e.At-from)/slice]++
		}
	}
	c := New(Options{N: n, Seed: 1, Bulk: true, NetOpts: []netsim.Option{netsim.WithTrace(trace)}})
	c.StartAll()
	c.RunUntil(from + 200*slice)
	total, busiest := 0, 0
	for _, k := range perSlice {
		total, busiest = total+k, max(busiest, k)
	}
	t.Logf("%d keep-alive pings in one round, %d in the busiest 10 ms slice", total, busiest)
	if total == 0 || 100*busiest > maxSharePct*total {
		t.Fatalf("the busiest 10 ms slice carries %d of the round's %d pings, over %d %%", busiest, total, maxSharePct)
	}
}
