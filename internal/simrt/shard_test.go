package simrt

import (
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/proto"
)

// buildSharded runs one full cluster lifecycle on the sharded engine:
// bulk build, settle, deterministic kills and spawns, more settling —
// the ingredients whose ordering the barrier exchange must keep
// placement-invariant.
func buildSharded(seed int64, shards, n int) *Cluster {
	c := New(Options{N: n, Seed: seed, Bulk: true, Shards: shards})
	c.StartAll()
	c.Run(6 * time.Second)
	rng := c.Rand()
	for i := 0; i < n/10; i++ {
		if victim := c.Nodes[rng.Intn(len(c.Nodes))]; c.Alive(victim) {
			c.Kill(victim)
		}
	}
	for i := 0; i < n/20; i++ {
		c.SpawnJoin()
		c.Run(200 * time.Millisecond)
	}
	c.Run(6 * time.Second)
	return c
}

// TestShardedClusterDigestEquivalence is the runtime-level equivalence
// oracle: the full TreeP protocol (bulk build, maintenance, kills,
// joins) must reach a bit-identical end state at every shard count.
func TestShardedClusterDigestEquivalence(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 80
	}
	for _, seed := range []int64{3, 17} {
		var want uint64
		for _, shards := range []int{1, 2, 4, 8} {
			c := buildSharded(seed, shards, n)
			got := c.StateDigest()
			c.Engine.Close()
			if shards == 1 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("seed %d: digest at %d shards = %#x, want %#x (1 shard)", seed, shards, got, want)
			}
		}
	}
}

// TestShardedClusterLookups checks the protocol actually works sharded:
// steady-state lookups resolve. Callbacks run on the origin's shard
// worker, so the counters take a lock — the runtime serializes nodes,
// not test code.
func TestShardedClusterLookups(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 256, Seed: 11, Bulk: true, Shards: 4})
	defer c.Engine.Close()
	c.StartAll()
	c.Run(8 * time.Second)

	var mu sync.Mutex
	found, failed := 0, 0
	for _, p := range randomPairs(c, 200) {
		targetID := p[1].ID()
		p[0].Lookup(targetID, proto.AlgoG, func(r core.LookupResult) {
			mu.Lock()
			if r.Status == core.LookupFound && r.Best.ID == targetID {
				found++
			} else {
				failed++
			}
			mu.Unlock()
		})
	}
	c.Run(origin0Timeout(c) + time.Second)
	if failed > found/20 {
		t.Fatalf("sharded steady state: %d found, %d failed", found, failed)
	}
	t.Logf("sharded steady state: %d found, %d failed", found, failed)
}

// TestShardedClusterInterrupt checks the wall-clock budget path end to
// end at the cluster level.
func TestShardedClusterInterrupt(t *testing.T) {
	c := New(Options{N: 32, Seed: 5, Bulk: true, Shards: 2})
	defer c.Engine.Close()
	c.StartAll()
	c.Run(time.Second)
	c.Interrupt()
	at := c.Now()
	c.Run(10 * time.Second)
	if c.Now() != at {
		t.Fatalf("run advanced %v past interrupt", c.Now()-at)
	}
	if !c.Interrupted() {
		t.Fatal("Interrupted() = false")
	}
}

// TestShardedSteadyStateAllocs pins the sharded hot path: once the
// overlay settles, advancing virtual time must allocate (almost)
// nothing beyond what the classic engine allocates — the exchange
// slices, inbox heaps, delivery records and event pools all reach
// steady state and recycle shard-locally. Skipped under the race
// detector, which instruments allocations (see race_on_test.go).
func TestShardedSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	// The figure per engine is the floor of eight windows on one settled
	// cluster. A single window right after the settle read 0.34–0.68
	// allocs/event run to run, for two reasons that are not the engine's:
	// the message pools are process-wide sync.Pools, which the forced
	// collection below (and whichever collection the settle happened to end
	// on) empties by an amount that depends on timing, so the first window
	// pays to refill them; and the overlay's tables are still growing for
	// some twenty virtual seconds. From the fifth window on both engines
	// read under 0.1 and repeat to 0.002 (classic 0.085–0.086, sharded
	// 0.077–0.079 over twenty whole-package runs). A per-event or per-epoch
	// allocation in the exchange is in every window, so in the floor too.
	const windows = 8
	measure := func(shards int) float64 {
		c := New(Options{N: 200, Seed: 9, Bulk: true, Shards: shards})
		if c.Engine != nil {
			defer c.Engine.Close()
		}
		c.StartAll()
		c.Run(8 * time.Second) // settle: splits, elections, pool growth
		runtime.GC()
		// No collection inside the windows: each one empties the message
		// pools, and how many fall into them depends on the heap the tests
		// before this one left behind, not on the engine.
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		floor := math.Inf(1)
		for w := 0; w < windows; w++ {
			var m0, m1 runtime.MemStats
			ev0 := c.Events()
			runtime.ReadMemStats(&m0)
			c.Run(5 * time.Second)
			runtime.ReadMemStats(&m1)
			events := c.Events() - ev0
			if events == 0 {
				t.Fatal("no events in measurement window")
			}
			per := float64(m1.Mallocs-m0.Mallocs) / float64(events)
			floor = math.Min(floor, per)
		}
		return floor
	}
	classic := measure(0)
	sharded := measure(2)
	t.Logf("allocs/event: classic %.4f, sharded(2) %.4f", classic, sharded)
	// The two engines run different (individually deterministic) event
	// streams, so compare budgets, not exact counts: steady state sits
	// around 0.08 allocs/event for both (residual maintenance churn), and
	// 0.03 of headroom — fifteen times what the floors move by — catches any
	// systematic per-event or per-epoch allocation the exchange might add.
	if sharded > classic+0.03 {
		t.Fatalf("sharded steady state allocates: %.4f/event vs classic %.4f/event", sharded, classic)
	}
}
