package scenario

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/rtable"
	"treep/internal/simrt"
)

// checker_test.go proves the balance checkers actually detect what they
// claim to: each test primes a healthy cluster (no violations), injects
// a synthetic violation of exactly the invariant under test, and
// demands the checker fire — with a detail string naming the culprit.

// tracedCluster bulk-builds and starts a cluster whose every datagram is
// folded into the returned per-node traffic.
func tracedCluster(n int, seed int64) (*simrt.Cluster, traffic) {
	load := traffic{}
	c := simrt.New(simrt.Options{N: n, Seed: seed, Bulk: true,
		NetOpts: []netsim.Option{netsim.WithTrace(load.fold)}})
	c.StartAll()
	return c, load
}

// TestLoadSpreadTripsOnInjectedHotspot drives the windowed load checker
// through its whole lifecycle on several seeds: priming pass, healthy
// window, an injected hotspot (one node's traffic inflated far past
// bound x the mean), and the post-injection quiet window.
func TestLoadSpreadTripsOnInjectedHotspot(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		c, load := tracedCluster(50, seed)
		c.Run(8 * time.Second)

		ch := LoadSpread(load, 8, 40)
		var x Ctx
		x.reset(c, nil)
		if v := ch.Check(&x); len(v) != 0 {
			t.Fatalf("seed %d: priming pass flagged: %v", seed, v)
		}

		// A healthy window of ordinary maintenance traffic stays quiet. It
		// is long enough to carry minMean messages a node, so the bound is
		// applied rather than skipped.
		total := func() (sum uint64) {
			for _, n := range c.AliveNodes() {
				sum += load[n.Addr()]
			}
			return sum
		}
		before := total()
		c.Run(8 * time.Second)
		if mean := float64(total()-before) / float64(len(c.AliveNodes())); mean < 40 {
			t.Fatalf("seed %d: the healthy window carried %.1f msgs a node, under minMean: nothing checked", seed, mean)
		}
		x.reset(c, nil)
		if v := ch.Check(&x); len(v) != 0 {
			t.Fatalf("seed %d: healthy window flagged: %v", seed, v)
		}

		// Inject: one node claims a window load vastly above 8x the mean.
		hot := c.AliveNodes()[0]
		load[hot.Addr()] += 50000
		x.reset(c, nil)
		v := ch.Check(&x)
		if len(v) != 1 {
			t.Fatalf("seed %d: injected hotspot produced %d violations, want 1: %v", seed, len(v), v)
		}
		if v[0].Checker != "load-spread" || !strings.Contains(v[0].Detail, hot.ID().String()) {
			t.Errorf("seed %d: violation does not name the hot node %s: %+v", seed, hot.ID(), v[0])
		}

		// The injection was consumed into the window baseline: with no new
		// traffic the next pass sees zero deltas and stays quiet.
		x.reset(c, nil)
		if v := ch.Check(&x); len(v) != 0 {
			t.Errorf("seed %d: post-injection quiet window flagged: %v", seed, v)
		}
	}
}

// TestLoadSpreadSkipsIdleWindows pins the minMean guard: a lone busy
// node over a near-idle window is noise, not a hotspot.
func TestLoadSpreadSkipsIdleWindows(t *testing.T) {
	c, load := tracedCluster(50, 1)
	c.Run(8 * time.Second)

	ch := LoadSpread(load, 8, 1000000) // minMean far above any real window
	var x Ctx
	x.reset(c, nil)
	ch.Check(&x)
	load[c.AliveNodes()[0].Addr()] += 50000
	x.reset(c, nil)
	if v := ch.Check(&x); len(v) != 0 {
		t.Errorf("idle-window guard failed: %v", v)
	}
}

// TestChildBalanceTripsOnInjectedFanIn checks the tree-shape invariant:
// after confirming a settled overlay is balanced, it stuffs dozens of
// synthetic children into one parent's table and demands the checker
// flag that parent — and only that parent.
func TestChildBalanceTripsOnInjectedFanIn(t *testing.T) {
	c := simrt.New(simrt.Options{N: 100, Seed: 1, Bulk: true})
	c.StartAll()
	c.Run(10 * time.Second)

	ch := ChildBalance(3, 2)
	var x Ctx
	x.reset(c, nil)
	if v := ch.Check(&x); len(v) != 0 {
		t.Fatalf("settled overlay flagged: %v", v)
	}

	// Pick a parent that already has children and give it an absurd
	// fan-in: far beyond factor x the level median plus slack.
	var parent *core.Node
	for _, nd := range c.AliveNodes() {
		if nd.MaxLevel() >= 1 && nd.Table().Children.Len() > 0 {
			parent = nd
			break
		}
	}
	if parent == nil {
		t.Fatal("no parent with children after settle")
	}
	now := c.Now()
	for i := uint64(0); i < 40; i++ {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], i)
		ref := proto.NodeRef{
			ID:    idspace.HashKey(b[:]),
			Addr:  1<<60 + i, // far outside real node addresses
			Score: 100,
		}
		parent.Table().Children.Upsert(ref, 0, now, 0, rtable.Direct)
	}
	x.reset(c, nil)
	v := ch.Check(&x)
	if len(v) == 0 {
		t.Fatal("injected fan-in tripped nothing")
	}
	for _, viol := range v {
		if viol.Checker != "child-balance" || !strings.Contains(viol.Detail, parent.ID().String()) {
			t.Errorf("violation does not name the overloaded parent %s: %+v", parent.ID(), viol)
		}
	}
}
