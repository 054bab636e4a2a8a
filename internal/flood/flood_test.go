package flood

import (
	"testing"
	"time"
)

func TestFloodFindsTargets(t *testing.T) {
	c := New(200, 4, 1)
	rng := c.Kernel.Stream(3)
	found, failed := 0, 0
	for i := 0; i < 50; i++ {
		origin := c.Nodes[rng.Intn(len(c.Nodes))]
		target := c.Nodes[rng.Intn(len(c.Nodes))]
		origin.Lookup(c, target.ID(), 8, func(r Result) {
			if r.Found {
				found++
			} else {
				failed++
			}
		})
	}
	c.Run(15 * time.Second)
	if found < 45 {
		t.Fatalf("flood found %d/50", found)
	}
}

func TestFloodMessageCostIsHigh(t *testing.T) {
	// The point of the baseline: message cost per lookup is O(n), far
	// beyond TreeP's handful of forwards.
	c := New(300, 4, 2)
	origin := c.Nodes[0]
	target := c.Nodes[200]
	before := c.Net.Stats().Sent
	ok := false
	origin.Lookup(c, target.ID(), 8, func(r Result) { ok = r.Found })
	c.Run(15 * time.Second)
	cost := c.Net.Stats().Sent - before
	if !ok {
		t.Skip("unlucky graph; flood missed")
	}
	if cost < 50 {
		t.Fatalf("flood cost %d messages — implausibly cheap", cost)
	}
	t.Logf("flood cost: %d messages for one lookup", cost)
}

func TestTTLBoundsFlood(t *testing.T) {
	c := New(400, 4, 3)
	origin := c.Nodes[0]
	// TTL 1 reaches only direct peers: a random far target is missed.
	misses := 0
	for i := 350; i < 360; i++ {
		target := c.Nodes[i]
		origin.Lookup(c, target.ID(), 1, func(r Result) {
			if !r.Found {
				misses++
			}
		})
	}
	c.Run(15 * time.Second)
	if misses < 8 {
		t.Fatalf("TTL 1 should miss most far targets, missed %d/10", misses)
	}
}

func TestFloodSurvivesFailures(t *testing.T) {
	c := New(250, 5, 4)
	rng := c.Kernel.Stream(9)
	killed := 0
	for killed < 50 {
		nd := c.Nodes[rng.Intn(len(c.Nodes))]
		if nd.alive {
			c.Kill(nd)
			killed++
		}
	}
	alive := c.AliveNodes()
	found := 0
	for i := 0; i < 50; i++ {
		origin := alive[rng.Intn(len(alive))]
		target := alive[rng.Intn(len(alive))]
		origin.Lookup(c, target.ID(), 8, func(r Result) {
			if r.Found {
				found++
			}
		})
	}
	c.Run(15 * time.Second)
	// Unstructured flooding is naturally failure-tolerant.
	if found < 35 {
		t.Fatalf("flood after 20%% kill found %d/50", found)
	}
}
