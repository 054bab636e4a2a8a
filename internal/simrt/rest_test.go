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
