package simrt

import (
	"slices"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/netsim"
	"treep/internal/proto"
)

// runLookups issues one lookup from each origin to each target's ID and
// returns (found, failed, totalHops over found).
func runLookups(c *Cluster, pairs [][2]*core.Node, algo proto.Algo) (found, failed, totalHops int) {
	done := 0
	for _, p := range pairs {
		origin, target := p[0], p[1]
		targetID := target.ID()
		origin.Lookup(targetID, algo, func(r core.LookupResult) {
			done++
			if r.Status == core.LookupFound && r.Best.ID == targetID {
				found++
				totalHops += r.Hops
			} else {
				failed++
			}
		})
	}
	// Let requests, replies and timeouts play out.
	c.Run(core.LookupDeadline + time.Second)
	return found, failed, totalHops
}

// randomPairs picks k random (origin, target) pairs among live nodes.
func randomPairs(c *Cluster, k int) [][2]*core.Node {
	alive := c.AliveNodes()
	rng := c.Rand()
	pairs := make([][2]*core.Node, 0, k)
	for i := 0; i < k; i++ {
		o := alive[rng.Intn(len(alive))]
		t := alive[rng.Intn(len(alive))]
		pairs = append(pairs, [2]*core.Node{o, t})
	}
	return pairs
}

func TestBulkClusterSteadyStateLookups(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 256, Seed: 1, Bulk: true})
	c.StartAll()
	c.Run(8 * time.Second) // settle: reports, pings, initial splits

	found, failed, hops := runLookups(c, randomPairs(c, 200), proto.AlgoG)
	if failed > found/20 {
		t.Fatalf("steady state: %d found, %d failed", found, failed)
	}
	avg := float64(hops) / float64(found)
	if avg > 10 {
		t.Fatalf("average hops %.1f too high", avg)
	}
	t.Logf("steady state: %d found, %d failed, avg hops %.2f, levels %v",
		found, failed, avg, c.LevelCounts)
}

func TestBulkClusterAllAlgorithms(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 200, Seed: 2, Bulk: true})
	c.StartAll()
	c.Run(8 * time.Second)
	for _, algo := range []proto.Algo{proto.AlgoG, proto.AlgoNG, proto.AlgoNGSA} {
		found, failed, _ := runLookups(c, randomPairs(c, 100), algo)
		if found == 0 || failed > found/5 {
			t.Fatalf("%v: %d found, %d failed", algo, found, failed)
		}
	}
}

func TestResilienceToFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 300, Seed: 3, Bulk: true})
	c.StartAll()
	c.Run(8 * time.Second)

	// Kill 20% of the nodes at random.
	rng := c.Rand()
	killed := 0
	for killed < 60 {
		n := c.Nodes[rng.Intn(len(c.Nodes))]
		if c.Alive(n) {
			c.Kill(n)
			killed++
		}
	}
	// Repair window: sweeps expire dead entries, elections and bus repairs
	// run.
	c.Run(20 * time.Second)

	found, failed, _ := runLookups(c, randomPairs(c, 200), proto.AlgoG)
	total := found + failed
	if total == 0 {
		t.Fatal("no lookups completed")
	}
	failRate := float64(failed) / float64(total)
	// The paper reports ~10% failures at 30% killed; at 20% killed the
	// rate should comfortably stay below 25%.
	if failRate > 0.25 {
		t.Fatalf("fail rate %.2f after 20%% failures", failRate)
	}
	t.Logf("after 20%% killed: %d found, %d failed (rate %.3f)", found, failed, failRate)
}

func TestHierarchyRepairAfterParentDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 128, Seed: 4, Bulk: true})
	c.StartAll()
	c.Run(5 * time.Second)

	// Kill every level>=2 node: the upper hierarchy must regrow.
	for _, n := range c.Nodes {
		if n.MaxLevel() >= 2 {
			c.Kill(n)
		}
	}
	c.Run(40 * time.Second)

	// Some surviving node must have been promoted to level >= 2 again, or
	// at least elections must have fired.
	promoted := 0
	var elections uint64
	for _, n := range c.AliveNodes() {
		if n.MaxLevel() >= 2 {
			promoted++
		}
		elections += n.Stats.ElectionsStarted
	}
	if promoted == 0 && elections == 0 {
		t.Fatal("no hierarchy regrowth after killing upper levels")
	}
	t.Logf("regrowth: %d promoted to lvl>=2, %d elections", promoted, elections)

	found, failed, _ := runLookups(c, randomPairs(c, 100), proto.AlgoG)
	if found == 0 {
		t.Fatalf("no lookup succeeds after repair: %d failed", failed)
	}
}

func TestProtocolBootstrapFromJoins(t *testing.T) {
	// No bulk build: all nodes join through node 0 and the hierarchy must
	// emerge from elections alone.
	c := New(Options{N: 48, Seed: 5, Bulk: false})
	c.Nodes[0].Start()
	boot := c.Nodes[0].Addr()
	for i, n := range c.Nodes {
		if i == 0 {
			continue
		}
		i := i
		n := n
		c.Engine.Shard(0).Schedule(time.Duration(i)*200*time.Millisecond, func() { n.Join(boot) })
	}
	c.Run(60 * time.Second)

	// Level-0 connectivity: every node should know at least one peer.
	for i, n := range c.Nodes {
		if n.Table().Level0.Len() == 0 {
			t.Fatalf("node %d has empty level-0 table", i)
		}
	}
	// The hierarchy must have emerged.
	levels := map[uint8]int{}
	for _, n := range c.Nodes {
		levels[n.MaxLevel()]++
	}
	if len(levels) < 2 {
		t.Fatalf("no hierarchy emerged: %v", levels)
	}
	t.Logf("bootstrap levels: %v", levels)

	found, failed, _ := runLookups(c, randomPairs(c, 80), proto.AlgoG)
	total := found + failed
	if found < total*3/4 {
		t.Fatalf("bootstrap lookups: %d/%d found", found, total)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() netsim.Stats {
		c := New(Options{N: 100, Seed: 42, Bulk: true})
		c.StartAll()
		c.Run(10 * time.Second)
		return c.Net.Stats()
	}
	if net1, net2 := run(), run(); net1 != net2 {
		t.Fatalf("non-deterministic: %+v vs %+v", net1, net2)
	}
}

func TestWireFidelityUnderLiveTraffic(t *testing.T) {
	// Round-trip every datagram the live protocol produces through the
	// binary codec: the zero-copy simulator path and the UDP path cannot
	// diverge silently.
	checked := 0
	trace := func(e netsim.TraceEvent) {
		if e.Dropped {
			return
		}
		msg, ok := e.Payload.(proto.Message)
		if !ok {
			t.Fatalf("non-message payload %T", e.Payload)
		}
		buf := proto.Encode(msg)
		if len(buf) != e.Size {
			t.Fatalf("%v: size %d, wire %d", msg.Type(), e.Size, len(buf))
		}
		if _, err := proto.Decode(buf); err != nil {
			t.Fatalf("decode %v: %v", msg.Type(), err)
		}
		checked++
	}
	c := New(Options{N: 64, Seed: 6, Bulk: true, NetOpts: []netsim.Option{netsim.WithTrace(trace)}})
	c.StartAll()
	c.Run(6 * time.Second)
	runLookups(c, randomPairs(c, 30), proto.AlgoNGSA)
	if checked < 1000 {
		t.Fatalf("only %d datagrams checked", checked)
	}
}

func TestMessageLossTolerated(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 150, Seed: 7, Bulk: true, NetOpts: []netsim.Option{netsim.WithLoss(0.05)}})
	c.StartAll()
	c.Run(10 * time.Second)
	found, failed, _ := runLookups(c, randomPairs(c, 150), proto.AlgoG)
	total := found + failed
	if found < total*4/5 {
		t.Fatalf("with 5%% loss: %d/%d found", found, total)
	}
}

func TestKillIsIdempotentAndStopsTraffic(t *testing.T) {
	c := New(Options{N: 16, Seed: 8, Bulk: true})
	c.StartAll()
	c.Run(2 * time.Second)
	n := c.Nodes[3]
	// Timers a layered service set through the node: the kill guard keeps
	// them silent while the node is dead, and a periodic one speaks again
	// once it is revived.
	ticks, fired := 0, false
	n.SetPeriodic(time.Second, time.Second, func() { ticks++ })
	n.SetTimer(5*time.Second, func() { fired = true })
	c.Kill(n)
	c.Kill(n) // idempotent
	c.Run(10 * time.Second)
	if ticks != 0 || fired {
		t.Fatalf("a killed node's timers ran: %d ticks, one-shot fired %v", ticks, fired)
	}
	if c.Alive(n) {
		t.Fatal("alive after kill")
	}
	if got := len(c.AliveNodes()); got != 15 {
		t.Fatalf("alive count %d", got)
	}
	c.Revive(n)
	c.Run(2 * time.Second)
	if ticks == 0 || fired {
		t.Fatalf("revived: %d ticks, one-shot fired %v; want the periodic timer back and the one-shot gone", ticks, fired)
	}
}

// TestAliveNodesReusesItsArray: a membership change does not cost the next
// AliveNodes call a fresh slice, the list keeps construction order through
// kills, revivals and spawns, and AliveCount agrees with it.
func TestAliveNodesReusesItsArray(t *testing.T) {
	c := New(Options{N: 64, Seed: 1, Bulk: true})
	c.StartAll()
	want := func() (out []*core.Node) {
		for _, n := range c.Nodes {
			if c.Alive(n) {
				out = append(out, n)
			}
		}
		return out
	}
	check := func(when string) {
		t.Helper()
		if got := c.AliveNodes(); !slices.Equal(got, want()) || c.AliveCount() != len(got) {
			t.Fatalf("%s: %d alive listed, %d counted, want %d in construction order", when, len(got), c.AliveCount(), len(want()))
		}
	}
	check("built")
	next := 0
	allocs := testing.AllocsPerRun(20, func() {
		c.Kill(c.Nodes[next*3%len(c.Nodes)])
		next++
		_ = c.AliveNodes()
	})
	if allocs != 0 {
		t.Errorf("Kill + AliveNodes allocates %.1f times", allocs)
	}
	check("after kills")
	c.Revive(c.Nodes[3])
	check("after a revival")
	c.SpawnJoin()
	check("after a spawn")
}

func TestNodeByAddr(t *testing.T) {
	c := New(Options{N: 4, Seed: 9})
	for _, n := range c.Nodes {
		if c.NodeByAddr(n.Addr()) != n {
			t.Fatal("addr lookup broken")
		}
	}
	if c.NodeByAddr(99999) != nil {
		t.Fatal("unknown addr should be nil")
	}
}

// TestZeroConfigRunsPiggybackOnly pins a split nobody chose: withDefaults
// cannot default a bool, so a cluster built without a Config — the gated
// benchmark's and most tests' — runs ImmediateUpdates off, while
// core.Defaults(), which treep.go, the kill sweep and the compare harness
// pass, turns it on. Resolving it either way resamples every trajectory
// (ROADMAP item 4); until then this test keeps the two arms from drifting
// unnoticed.
func TestZeroConfigRunsPiggybackOnly(t *testing.T) {
	bare := New(Options{N: 4, Seed: 1, Bulk: true})
	if bare.Nodes[0].Config().ImmediateUpdates {
		t.Fatal("a cluster built from the zero Config pushes updates immediately: the benchmark's configuration moved")
	}
	shipped := New(Options{N: 4, Seed: 1, Bulk: true, Config: core.Defaults()})
	if !shipped.Nodes[0].Config().ImmediateUpdates {
		t.Fatal("core.Defaults() no longer pushes updates immediately")
	}
}

// TestNowInsideCallbacksIsTheEventTime holds Cluster.Now, read inside a
// lookup's completion callback, to the node's own clock: issue time plus
// LookupResult.Latency, which the origin measures on its shard kernel. On
// one shard (Shards 0 and 1) the engine runs inline, so its clock is that
// kernel's; the barrier clock would round every completion down to the
// epoch grid, and the benchmark reads its latencies this way.
func TestNowInsideCallbacksIsTheEventTime(t *testing.T) {
	for _, shards := range []int{0, 1} {
		c := New(Options{N: 100, Seed: 3, Bulk: true, Shards: shards})
		c.StartAll()
		c.Run(6 * time.Second)
		rng := c.Rand()
		const lookups = 50
		done := 0
		for i := 0; i < lookups; i++ {
			issued := c.Now()
			target := c.Nodes[rng.Intn(len(c.Nodes))].ID()
			c.Nodes[rng.Intn(len(c.Nodes))].Lookup(target, proto.AlgoG, func(r core.LookupResult) {
				done++
				if got, want := c.Now(), issued+r.Latency; got != want {
					t.Errorf("shards %d: Now() in the callback = %v, want issue time %v + latency %v = %v", shards, got, issued, r.Latency, want)
				}
			})
			c.Run(37 * time.Millisecond)
		}
		c.Run(core.LookupDeadline)
		c.Engine.Close()
		if done != lookups {
			t.Fatalf("shards %d: %d of %d lookups called back", shards, done, lookups)
		}
	}
}
