// Package simrt binds core TreeP nodes to the deterministic simulator: it
// is the runtime the experiments and benchmarks use. A Cluster owns a sim
// engine, a netsim network, and a set of nodes whose core.Env is backed by
// virtual time and simulated datagrams.
package simrt

import (
	"math/rand"
	"slices"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/nodeprof"
	"treep/internal/proto"
	"treep/internal/sim"
)

// Options configures a cluster build.
type Options struct {
	// N is the number of nodes.
	N int
	// Seed drives every random decision (IDs, profiles, latencies, the
	// workload) — same seed, same run.
	Seed int64
	// Config is the per-node protocol configuration (ID and Profile fields
	// are filled per node).
	Config core.Config
	// NetOpts configures the simulated network (latency, loss, tracing).
	NetOpts []netsim.Option
	// Bulk installs the steady-state hierarchy via core.BulkBuild. When
	// false the cluster starts as disconnected level-0 nodes (protocol
	// bootstrap tests).
	Bulk bool
	// Shards is the engine's shard count: 0 = one shard in netsim's
	// classic draw order (the default), one global latency/loss stream
	// consumed in global send order, bit-identical to every pre-sharding
	// run. ≥ 1 partitions nodes across that many shards by ID range, draws
	// per origin and exchanges every datagram at the epoch barrier, so
	// every Shards ≥ 1 value reaches the same end state for a seed (the
	// oracle tests' equivalence); runs at 0 and at ≥ 1 differ. A trace
	// hook in NetOpts works at every value: the engine then steps through
	// its shards on one goroutine, the same run on one core.
	Shards int
}

// Cluster is a simulated TreeP deployment.
type Cluster struct {
	// Engine runs the cluster: one shard when Options.Shards is 0.
	Engine *sim.Sharded
	Net    *netsim.Network
	Nodes  []*core.Node

	// byAddr and envs are indexed by transport address: the cluster's
	// netsim hands out sequential addresses from 1, and both are read on
	// the per-event hot path (every send checks liveness), where an array
	// index beats a map probe. Slot 0 is unused. A node's liveness is its
	// env's up flag, the gate every timer of the node runs behind.
	byAddr []*core.Node
	envs   []*simEnv
	// aliveList caches AliveNodes (construction order), rebuilt in its own
	// array after a membership change sets aliveStale; aliveN counts it.
	aliveList  []*core.Node
	aliveStale bool
	aliveN     int
	// LevelCounts reports the bulk-built members per level (nil without
	// Bulk).
	LevelCounts []int
	// scratch holds one core.Scratch per event loop, one per shard kernel.
	// Never one for two loops — shard workers run concurrently.
	scratch []core.Scratch

	// Construction machinery retained for dynamic spawns: the base config,
	// the profile generator, and a dedicated ID stream. Spawned nodes draw
	// random IDs (the paper's "assigned randomly" join case) rather than
	// re-running the balanced assigner, whose placement assumes a fixed n.
	baseCfg   core.Config
	gen       *nodeprof.Generator
	spawnRand *rand.Rand
}

// shardOfID places a node ID on a shard by contiguous ID range: with the
// balanced assigner spreading IDs uniformly, populations divide evenly,
// and the mapping is independent of attach order so re-running a seed at
// a different shard count keeps every node's identity and streams.
func shardOfID(id uint64, shards int) int {
	if shards <= 1 {
		return 0
	}
	stride := ^uint64(0)/uint64(shards) + 1
	return int(id / stride)
}

// New builds a cluster.
func New(opts Options) *Cluster {
	if opts.N <= 0 {
		panic("simrt: N must be positive")
	}
	net := netsim.NewSharded(opts.Seed, opts.Shards, opts.NetOpts...)
	gen := nodeprof.NewGenerator(opts.Seed ^ 0x70726f66) // "prof"

	c := &Cluster{
		Engine:  net.Engine(),
		Net:     net,
		byAddr:  make([]*core.Node, 1, opts.N+1),
		envs:    make([]*simEnv, 1, opts.N+1),
		baseCfg: opts.Config,
		gen:     gen,
		scratch: make([]core.Scratch, net.Engine().Shards()),
	}
	// Every control-plane stream goes through c.Stream, which derives
	// identically at every shard count, so a seed's node IDs, profiles,
	// anchors and workload are the same population in either draw order.
	c.spawnRand = c.Stream(0x7370776e) // "spwn"
	// Balanced with jitter keeps bulk-built trees near the paper's height law.
	assigner := idspace.BalancedAssigner{Rand: c.Stream(0x696473), JitterFrac: 0.8} // "ids"

	anchorRand := c.Stream(0x616e6368) // "anch"
	for i := 0; i < opts.N; i++ {
		cfg := opts.Config
		cfg.ID = assigner.Assign(i, opts.N)
		cfg.Profile = gen.Next()
		// Three random anchors per node (addresses are assigned 1..N in
		// construction order by netsim).
		for a := 0; a < 3; a++ {
			cfg.Anchors = append(cfg.Anchors, uint64(1+anchorRand.Intn(opts.N)))
		}
		c.attach(cfg)
	}

	if opts.Bulk {
		// Node configs have had defaults applied; read the effective height.
		c.LevelCounts = core.BulkBuild(c.Nodes, c.Nodes[0].Config().MaxHeight)
	}
	return c
}

// attach wires one configured node into the network and bookkeeping maps.
// The node lands on the shard owning its ID range, and its environment
// (clock, timers, rng) binds to that shard's kernel — the same-seed
// derivation keeps the rng identical at any shard count.
func (c *Cluster) attach(cfg core.Config) *core.Node {
	shard := shardOfID(uint64(cfg.ID), c.Engine.Shards())
	addr := c.Net.AttachOn(shard, func(netsim.Addr, interface{}, int) {})
	kern := c.Engine.Shard(shard)
	env := &simEnv{cluster: c, addr: uint64(addr), rng: kern.Stream(uint64(addr)), kern: kern, sc: &c.scratch[shard], up: true}
	node := core.NewNode(cfg, env)
	c.Net.SetHandler(addr, func(from netsim.Addr, payload interface{}, size int) {
		if msg, ok := payload.(proto.Message); ok {
			node.HandleMessage(uint64(from), msg)
		}
	})
	c.Nodes = append(c.Nodes, node)
	// Addresses are sequential; attach order matches slice growth.
	if uint64(addr) != uint64(len(c.byAddr)) {
		panic("simrt: non-sequential address from netsim")
	}
	c.byAddr = append(c.byAddr, node)
	c.envs = append(c.envs, env)
	c.aliveStale = true
	c.aliveN++
	return node
}

// Spawn creates a brand-new node mid-simulation (dynamic membership: the
// population is no longer fixed at New). The node draws a random ID and a
// fresh profile, anchors on three random existing endpoints, and is
// returned started but not yet joined; callers normally use SpawnJoin.
func (c *Cluster) Spawn() *core.Node {
	cfg := c.baseCfg
	cfg.ID = idspace.ID(c.spawnRand.Uint64())
	cfg.Profile = c.gen.Next()
	cfg.Anchors = nil
	total := len(c.Nodes)
	for a := 0; a < 3 && total > 0; a++ {
		cfg.Anchors = append(cfg.Anchors, uint64(1+c.spawnRand.Intn(total)))
	}
	n := c.attach(cfg)
	n.Start()
	return n
}

// SpawnJoin spawns a node and bootstraps it into the overlay through a
// live peer chosen deterministically from the spawn stream. It returns nil
// when no live bootstrap exists.
func (c *Cluster) SpawnJoin() *core.Node {
	alive := c.AliveNodes()
	if len(alive) == 0 {
		return nil
	}
	boot := alive[c.spawnRand.Intn(len(alive))]
	n := c.Spawn()
	n.Join(boot.Addr())
	return n
}

// StartAll starts every node's maintenance timers.
func (c *Cluster) StartAll() {
	for _, n := range c.Nodes {
		n.Start()
	}
}

// Now returns the cluster's virtual clock, the engine's (sim.Sharded.Now):
// on one shard it is exact inside event callbacks too, on more it is the
// barrier clock (control plane only).
func (c *Cluster) Now() time.Duration { return c.Engine.Now() }

// RunUntil advances virtual time to the target. After Interrupt it is a
// no-op, so scenario loops wind down at their next control-plane check.
func (c *Cluster) RunUntil(t time.Duration) { c.Engine.RunUntil(t) }

// Run advances virtual time by d.
func (c *Cluster) Run(d time.Duration) { c.RunUntil(c.Now() + d) }

// Events returns the number of events executed so far (summed across
// shards; control plane only).
func (c *Cluster) Events() uint64 { return c.Engine.Executed() }

// Stream returns the deterministic random stream for a label, identical
// at every shard count for a given seed (control plane only).
func (c *Cluster) Stream(label uint64) *rand.Rand { return c.Engine.Stream(label) }

// Interrupt aborts the run at the next epoch barrier and makes all
// further Run/RunUntil calls no-ops. It is the one cluster method safe to
// call from another goroutine: wall-clock budget watchdogs use it to cap
// a row's runtime.
func (c *Cluster) Interrupt() { c.Engine.Interrupt() }

// Interrupted reports whether Interrupt cut the run short.
func (c *Cluster) Interrupted() bool { return c.Engine.Interrupted() }

// Kill removes a node from the network (fail-stop, no goodbye): its
// endpoint stops receiving and its timers stop firing.
func (c *Cluster) Kill(n *core.Node) {
	addr := n.Addr()
	if !c.isAlive(addr) {
		return
	}
	c.envs[addr].up = false
	c.aliveStale = true
	c.aliveN--
	c.Net.Kill(netsim.Addr(addr))
	n.Stop()
}

// Revive brings a killed node back (same address and identity; protocol
// state continues from wherever it was). Callers normally follow with
// node.Join to reintegrate.
func (c *Cluster) Revive(n *core.Node) {
	addr := n.Addr()
	if c.isAlive(addr) {
		return
	}
	c.envs[addr].up = true
	c.aliveStale = true
	c.aliveN++
	c.Net.Revive(netsim.Addr(addr))
}

// isAlive reports liveness for a transport address.
func (c *Cluster) isAlive(addr uint64) bool {
	return addr != 0 && addr < uint64(len(c.envs)) && c.envs[addr].up
}

// Alive reports whether the node is still up.
func (c *Cluster) Alive(n *core.Node) bool { return c.isAlive(n.Addr()) }

// AliveNodes returns the live nodes in construction order, in a slice the
// cluster owns (callers must not mutate it) and rebuilds in place on the first
// call after a Kill, Revive or Spawn: a caller that holds it across a
// membership change and a later call copies it first.
func (c *Cluster) AliveNodes() []*core.Node {
	if c.aliveStale {
		c.aliveList = slices.Grow(c.aliveList[:0], c.aliveN)
		for _, n := range c.Nodes {
			if c.isAlive(n.Addr()) {
				c.aliveList = append(c.aliveList, n)
			}
		}
		c.aliveStale = false
	}
	return c.aliveList
}

// ProtocolStats sums the protocol counters of every node the cluster has
// ever run, live or not: a killed node's forwards and failovers happened.
func (c *Cluster) ProtocolStats() core.Stats {
	var sum core.Stats
	for _, n := range c.Nodes {
		sum.Add(n.Stats)
	}
	return sum
}

// AliveCount returns the live population without materialising the list.
func (c *Cluster) AliveCount() int { return c.aliveN }

// DeadNodes returns the killed nodes in construction order (revival-wave
// scenarios pick their candidates here).
func (c *Cluster) DeadNodes() []*core.Node {
	out := make([]*core.Node, 0)
	for _, n := range c.Nodes {
		if !c.isAlive(n.Addr()) {
			out = append(out, n)
		}
	}
	return out
}

// Partition splits the network at the given coordinate: datagrams between
// nodes on opposite sides of split are dropped until Heal. The link
// filter is consulted at send time (datagrams already in flight still
// arrive), and it resolves sides from node IDs lazily, so nodes spawned
// mid-partition are partitioned correctly too.
func (c *Cluster) Partition(split idspace.ID) {
	c.Net.SetLinkFilter(netsim.SplitFilter(split, func(a netsim.Addr) (idspace.ID, bool) {
		n := c.NodeByAddr(uint64(a))
		if n == nil {
			return 0, false
		}
		return n.ID(), true
	}))
}

// PartitionBy installs a link filter that drops datagrams between nodes
// on different sides of an arbitrary predicate — Partition is the
// coordinate special case. A parity split by address fragments the
// overlay into two fully interleaved islands, the worst case for any
// merge protocol. Addresses that resolve to no node pass unconditionally,
// mirroring SplitFilter. Heal removes it.
func (c *Cluster) PartitionBy(side func(n *core.Node) bool) {
	c.Net.SetLinkFilter(func(from, to netsim.Addr) bool {
		a, b := c.NodeByAddr(uint64(from)), c.NodeByAddr(uint64(to))
		if a == nil || b == nil {
			return true
		}
		return side(a) == side(b)
	})
}

// Heal removes the partition installed by Partition or PartitionBy.
func (c *Cluster) Heal() { c.Net.SetLinkFilter(nil) }

// NodeByAddr resolves an address to its node, or nil.
func (c *Cluster) NodeByAddr(addr uint64) *core.Node {
	if addr == 0 || addr >= uint64(len(c.byAddr)) {
		return nil
	}
	return c.byAddr[addr]
}

// Rand returns a deterministic random stream for workload decisions,
// distinct from all node streams.
func (c *Cluster) Rand() *rand.Rand { return c.Stream(0x776b6c64) } // "wkld"

// simEnv adapts the cluster to core.Env for one node. kern is the
// kernel the node's shard runs on: its clock and timers must be the node's own shard's, both for
// correctness (a node's events execute on its shard) and because the
// shard kernel's clock is exact mid-epoch while the engine's barrier
// clock lags it.
type simEnv struct {
	cluster *Cluster
	addr    uint64
	rng     *rand.Rand
	kern    *sim.Kernel
	sc      *core.Scratch // the scratch of kern's loop
	// up is the node's liveness and the gate of every timer it sets: a
	// killed node's timers never run, and an operation whose origin died
	// never calls back.
	up bool
}

func (e *simEnv) Addr() uint64           { return e.addr }
func (e *simEnv) Now() time.Duration     { return e.kern.Now() }
func (e *simEnv) Rand() *rand.Rand       { return e.rng }
func (e *simEnv) Scratch() *core.Scratch { return e.sc }

func (e *simEnv) Send(to uint64, msg proto.Message) {
	// Dead senders cannot transmit: a control-plane call on a killed node
	// may still try. The message goes back to its pool unsent.
	if !e.up {
		proto.ReleaseDecoded(msg)
		return
	}
	e.cluster.Net.Send(netsim.Addr(e.addr), netsim.Addr(to), msg, proto.WireSize(msg))
}

func (e *simEnv) SetTimer(d time.Duration, fn func()) core.Timer {
	return e.kern.ScheduleGated(&e.up, d, fn)
}

func (e *simEnv) SetPeriodic(first, every time.Duration, fn func()) core.Timer {
	return e.kern.SchedulePeriodicGated(&e.up, first, every, fn)
}
