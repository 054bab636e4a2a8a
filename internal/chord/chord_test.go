package chord

import (
	"testing"
	"time"
)

func TestSteadyStateLookups(t *testing.T) {
	c := New(128, 1)
	c.Run(4 * time.Second)
	found, failed, hops := 0, 0, 0
	rng := c.Kernel.Stream(99)
	for i := 0; i < 100; i++ {
		origin := c.Nodes[rng.Intn(len(c.Nodes))]
		target := c.Nodes[rng.Intn(len(c.Nodes))]
		// successor(target.id) == target itself (its ID is on the ring).
		want := target.ID()
		origin.Lookup(c, want, func(r LookupResult) {
			if r.Found && r.Succ == want {
				found++
				hops += r.Hops
			} else {
				failed++
			}
		})
	}
	c.Run(12 * time.Second)
	if failed > 2 {
		t.Fatalf("steady state: %d found %d failed", found, failed)
	}
	avg := float64(hops) / float64(found)
	// log2(128) = 7; typical chord average is ~0.5*log2(n).
	if avg > 10 {
		t.Fatalf("avg hops %.1f too high", avg)
	}
	t.Logf("chord steady: found=%d avg hops %.2f", found, avg)
}

func TestLookupHopsLogarithmic(t *testing.T) {
	small := avgHops(t, 64, 2)
	large := avgHops(t, 512, 3)
	if large > small*2.2+2 {
		t.Fatalf("hops not logarithmic: n=64 -> %.2f, n=512 -> %.2f", small, large)
	}
}

func avgHops(t *testing.T, n int, seed int64) float64 {
	t.Helper()
	c := New(n, seed)
	c.Run(2 * time.Second)
	rng := c.Kernel.Stream(7)
	found, hops := 0, 0
	for i := 0; i < 80; i++ {
		origin := c.Nodes[rng.Intn(len(c.Nodes))]
		target := c.Nodes[rng.Intn(len(c.Nodes))]
		want := target.ID()
		origin.Lookup(c, want, func(r LookupResult) {
			if r.Found && r.Succ == want {
				found++
				hops += r.Hops
			}
		})
	}
	c.Run(12 * time.Second)
	if found == 0 {
		t.Fatal("no lookups succeeded")
	}
	return float64(hops) / float64(found)
}

func TestSurvivesFailuresWithStabilization(t *testing.T) {
	c := New(200, 4)
	c.Run(4 * time.Second)
	rng := c.Kernel.Stream(11)
	killed := 0
	for killed < 40 { // 20%
		nd := c.Nodes[rng.Intn(len(c.Nodes))]
		if nd.alive {
			c.Kill(nd)
			killed++
		}
	}
	c.DropDead()
	c.Run(10 * time.Second) // stabilisation rounds

	alive := c.AliveNodes()
	found, failed := 0, 0
	for i := 0; i < 100; i++ {
		origin := alive[rng.Intn(len(alive))]
		target := alive[rng.Intn(len(alive))]
		want := target.ID()
		origin.Lookup(c, want, func(r LookupResult) {
			if r.Found && r.Succ == want {
				found++
			} else {
				failed++
			}
		})
	}
	c.Run(12 * time.Second)
	if found < 60 {
		t.Fatalf("chord after 20%% kill: found=%d failed=%d", found, failed)
	}
	t.Logf("chord after 20%% kill: found=%d failed=%d", found, failed)
}

func TestKillStopsNode(t *testing.T) {
	c := New(16, 5)
	nd := c.Nodes[3]
	c.Kill(nd)
	if nd.alive {
		t.Fatal("alive after kill")
	}
	if len(c.AliveNodes()) != 15 {
		t.Fatal("alive count")
	}
}
