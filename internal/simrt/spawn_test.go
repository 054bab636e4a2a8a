package simrt

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
)

// TestSpawnJoinIntegrates exercises dynamic membership: nodes spawned
// mid-simulation must bootstrap through the live overlay, land on the
// level-0 ring, and become resolvable by lookup.
func TestSpawnJoinIntegrates(t *testing.T) {
	c := New(Options{N: 120, Seed: 31, Bulk: true})
	c.StartAll()
	c.Run(6 * time.Second)

	var spawned []*core.Node
	for i := 0; i < 5; i++ {
		n := c.SpawnJoin()
		if n == nil {
			t.Fatal("SpawnJoin returned nil with a live overlay")
		}
		spawned = append(spawned, n)
		c.Run(2 * time.Second)
	}
	if len(c.Nodes) != 125 {
		t.Fatalf("population %d, want 125", len(c.Nodes))
	}
	c.Run(8 * time.Second)

	for i, n := range spawned {
		if !c.Alive(n) {
			t.Fatalf("spawned node %d not alive", i)
		}
		if n.Table().Level0.Len() == 0 {
			t.Fatalf("spawned node %d never linked into the ring", i)
		}
	}
	// Every spawned node's ID resolves from an original node.
	pairs := make([][2]*core.Node, len(spawned))
	for i, n := range spawned {
		pairs[i] = [2]*core.Node{c.Nodes[i], n}
	}
	found, failed, _ := runLookups(c, pairs, proto.AlgoG)
	if failed > 0 {
		t.Fatalf("spawned nodes resolvable: %d found, %d failed", found, failed)
	}
}

// spawnJoinAllocCap is the committed ceiling on what one join costs the
// heap, in allocations: the SpawnJoin call (node, table, sets, env, timers,
// the first request) and everything the overlay does about the joiner in
// the seconds after — redirect hops, acceptance, courtship, table growth
// at its neighbours — net of a same-seed run without joins. Measured
// 13.5–13.7 (11.2 of them the call); the cap is that + 20 %, rounded up.
// It read 25.4–25.6 before the per-peer states took their slabs from pools
// as they grew, 50.5 before the routing-table sets did, 87.3 before the join and hierarchy messages were pooled and the
// courtship timer bound once, and 123 before the sets' address mirror was
// dropped.
const spawnJoinAllocCap = 17

// TestSpawnJoinAllocs holds a join's allocations to spawnJoinAllocCap: a
// settled N=200 overlay takes 20 joins, one every 250 ms, and runs 5 s on;
// the control takes none. The collector is off, so no pool empties, and a
// first pair of runs warms everything a process allocates once. One P, as
// testing.AllocsPerRun has it: a pool keeps an item in a slot only its own
// P's Get reads, and with two the figure spread 23.4–29.6.
func TestSpawnJoinAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes what allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const joins = 20
	mallocs := func() uint64 {
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.Mallocs
	}
	window := func(spawn bool) (total, calls uint64) {
		c := New(Options{N: 200, Seed: 34, Bulk: true})
		c.StartAll()
		c.Run(6 * time.Second)
		start := mallocs()
		for i := 0; i < joins; i++ {
			if spawn {
				before := mallocs()
				if c.SpawnJoin() == nil {
					t.Fatal("SpawnJoin returned nil with a live overlay")
				}
				calls += mallocs() - before
			}
			c.Run(250 * time.Millisecond)
		}
		c.Run(5 * time.Second)
		return mallocs() - start, calls
	}
	window(false)
	window(true)
	quiet, _ := window(false)
	churn, calls := window(true)
	perJoin := (float64(churn) - float64(quiet)) / joins
	t.Logf("%.1f allocations per join, %.1f of them the SpawnJoin call (cap %d)", perJoin, float64(calls)/joins, spawnJoinAllocCap)
	if perJoin > spawnJoinAllocCap {
		t.Fatalf("a join costs %.1f allocations, cap %d", perJoin, spawnJoinAllocCap)
	}
}

// TestSpawnDeterministic verifies spawns draw from the kernel's seeded
// streams: same seed, same IDs.
func TestSpawnDeterministic(t *testing.T) {
	build := func() []idspace.ID {
		c := New(Options{N: 50, Seed: 32, Bulk: true})
		c.StartAll()
		c.Run(2 * time.Second)
		var ids []idspace.ID
		for i := 0; i < 3; i++ {
			ids = append(ids, c.SpawnJoin().ID())
		}
		return ids
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("spawn %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestPartitionBlocksAndHeals checks the cluster-level partition helper:
// datagrams crossing the split vanish, and Heal restores connectivity.
func TestPartitionBlocksAndHeals(t *testing.T) {
	c := New(Options{N: 60, Seed: 33, Bulk: true})
	c.StartAll()
	c.Run(4 * time.Second)

	c.Partition(idspace.MaxID / 2)
	before := c.Net.Stats().LostFiltered
	c.Run(4 * time.Second)
	if got := c.Net.Stats().LostFiltered; got == before {
		t.Fatal("no datagrams filtered during partition")
	}
	c.Heal()
	start := c.Net.Stats().LostFiltered
	c.Run(4 * time.Second)
	if got := c.Net.Stats().LostFiltered; got != start {
		t.Fatalf("datagrams still filtered after heal: %d", got-start)
	}
}
