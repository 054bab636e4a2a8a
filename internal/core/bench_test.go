package core

import (
	"math/rand"
	"runtime/debug"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/nodeprof"
	"treep/internal/proto"
)

// benchEnv is a minimal Env for protocol micro-benchmarks: sends are
// dropped after recycling pooled payloads (emulating the network's
// end-of-delivery hook), timers are inert. This isolates per-message
// protocol cost from both the simulator kernel and the network model —
// the number BenchmarkProtocolStep reports is what one inbound keep-alive
// costs the node itself.
type benchEnv struct {
	addr uint64
	now  time.Duration
	rng  *rand.Rand
	sent uint64
	sc   Scratch
}

func (e *benchEnv) Addr() uint64       { return e.addr }
func (e *benchEnv) Now() time.Duration { return e.now }
func (e *benchEnv) Rand() *rand.Rand   { return e.rng }
func (e *benchEnv) Scratch() *Scratch  { return &e.sc }

func (e *benchEnv) Send(to uint64, msg proto.Message) {
	e.sent++
	proto.ReleaseDecoded(msg)
}

func (e *benchEnv) SetTimer(d time.Duration, fn func()) Timer               { return Timer{} }
func (e *benchEnv) SetPeriodic(first, every time.Duration, fn func()) Timer { return Timer{} }

// sent is how many datagrams a node on a benchEnv has handed to the network.
func sent(n *Node) uint64 { return n.env.(*benchEnv).sent }

// benchCluster bulk-builds n steady-state nodes on benchEnvs and returns
// them in ID order together with a realistic inbound Ping for the target
// node (composed by its ring neighbour, delta plus structural entries).
func benchCluster(n int) (nodes []*Node, target *Node, from uint64, ping *proto.Ping) {
	gen := nodeprof.NewGenerator(42)
	assigner := idspace.BalancedAssigner{}
	nodes = make([]*Node, n)
	for i := 0; i < n; i++ {
		cfg := Defaults()
		cfg.ID = assigner.Assign(i, n)
		cfg.Profile = gen.Next()
		nodes[i] = NewNode(cfg, &benchEnv{addr: uint64(i + 1), rng: rand.New(rand.NewSource(int64(i + 1)))})
	}
	BulkBuild(nodes, Defaults().MaxHeight)

	target = nodes[n/2]
	nbr := nodes[n/2-1]
	ping = &proto.Ping{From: nbr.Ref(), Seq: 1}
	ping.Entries = nbr.composeUpdate(target.Addr(), false)
	return nodes, target, nbr.Addr(), ping
}

// BenchmarkProtocolStep measures one inbound keep-alive Ping through
// HandleMessage — touch, delta application, membership notes, and the
// composed Pong reply — with no kernel or network in the loop. This is
// the per-message protocol cost that must stay flat as N grows.
func BenchmarkProtocolStep(b *testing.B) {
	_, target, from, ping := benchCluster(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.HandleMessage(from, ping)
	}
	b.ReportMetric(float64(sent(target))/float64(b.N), "replies/op")
}

// BenchmarkProtocolKeepalive measures one outbound keep-alive tick: the
// active-peer walk and one composed update per active connection.
func BenchmarkProtocolKeepalive(b *testing.B) {
	_, target, _, _ := benchCluster(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target.keepaliveTick()
	}
}

// TestProtocolSteadyStateAllocs pins the pooled protocol paths at zero
// steady-state allocations: handling an inbound keep-alive (including the
// pooled Pong reply), running an outbound keep-alive tick, an origin lookup
// that is forwarded and answered, and forwarding a lookup through the whole
// hold → hop-ack → release cycle must not allocate once buffers are warm.
func TestProtocolSteadyStateAllocs(t *testing.T) {
	// Pooled paths cannot be alloc-free under the race detector: race-mode
	// sync.Pool deliberately drops a quarter of all Puts on the floor
	// (sync/pool.go), so every few operations a Get misses and refills.
	// That is an instrumentation artifact, not a leak — skip rather than
	// flake.
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; pooled paths cannot be alloc-free")
	}
	// Disable the collector for the duration of the test. AllocsPerRun
	// counts mallocs, and a GC cycle mid-run empties the message pools'
	// victim caches (sync.Pool retains objects for only one cycle), so a
	// badly timed collection makes a genuinely pooled path report
	// refill allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	nodes, target, from, ping := benchCluster(512)
	// Warm every scratch buffer and pool.
	for i := 0; i < 16; i++ {
		target.HandleMessage(from, ping)
		target.keepaliveTick()
	}
	if allocs := testing.AllocsPerRun(200, func() {
		target.HandleMessage(from, ping)
	}); allocs != 0 {
		t.Fatalf("inbound keep-alive allocated %.1f times per message, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		target.keepaliveTick()
	}); allocs != 0 {
		t.Fatalf("keep-alive tick allocated %.1f times per tick, want 0", allocs)
	}

	// An origin lookup that leaves the node and is answered: its record
	// comes from the pool and goes back to it, and the request goes out as
	// a pooled copy. The callback is made once, outside the count.
	far := nodes[len(nodes)-1]
	answer := &proto.LookupReply{From: far.Ref(), Status: proto.LookupFound, Best: far.Ref(), Hops: 3}
	found := 0
	cb := func(r LookupResult) {
		if r.Status == LookupFound {
			found++
		}
	}
	lookup := func() {
		answer.ReqID = target.Lookup(far.ID(), proto.AlgoG, cb)
		if target.PendingLookups() != 1 {
			t.Fatal("the lookup did not leave the node")
		}
		target.HandleMessage(far.Addr(), answer)
	}
	for i := 0; i < 16; i++ {
		lookup()
	}
	if allocs := testing.AllocsPerRun(200, lookup); allocs != 0 {
		t.Fatalf("a forwarded and answered lookup allocated %.1f times, want 0", allocs)
	}
	if found != 217 {
		t.Fatalf("%d of 217 lookups found their target", found)
	}

	// A lookup forward to a peer last heard from an hour ago: answered
	// (pooled hop-ack), held in a slot, sent on as a pooled copy, released
	// by the next hop's acknowledgement.
	env := target.env.(*benchEnv)
	req := &proto.LookupRequest{Origin: nodes[0].Ref(), Target: nodes[len(nodes)-1].ID() - 1,
		ReqID: 1, TTL: 200, Hops: 1, Algo: proto.AlgoG, AckWanted: true}
	next := target.route(from, req).Next
	ack := &proto.LookupReply{From: next, ReqID: 1, Status: proto.LookupHopAck}
	held := 0
	forward := func() {
		env.now += time.Hour
		target.HandleMessage(from, req)
		held += int(target.fo.held)
		target.HandleMessage(next.Addr, ack)
		held += int(target.fo.held)
	}
	for i := 0; i < 16; i++ {
		forward()
	}
	held = 0
	if allocs := testing.AllocsPerRun(200, forward); allocs != 0 {
		t.Fatalf("held, acked and released forward allocated %.1f times, want 0", allocs)
	}
	if held != 201 || target.Stats.LookupAcksSolicited != 217 || target.Stats.LookupFailovers != 0 {
		t.Fatalf("each forward must be held once and released: held=%d solicited=%d failovers=%d",
			held, target.Stats.LookupAcksSolicited, target.Stats.LookupFailovers)
	}

	// A refused courtship: a parented level-0 node courts a level-0 ring
	// neighbour (pooled child report, courtship timer bound once), the
	// neighbour turns it away (pooled Reparent), and the refusal ends the
	// courtship.
	var suitor, courted *Node
	for i := 1; i+1 < len(nodes) && suitor == nil; i++ {
		if _, ok := nodes[i].table.Parent(); ok && nodes[i].MaxLevel() == 0 && nodes[i+1].MaxLevel() == 0 {
			suitor, courted = nodes[i], nodes[i+1]
		}
	}
	if suitor == nil {
		t.Fatal("no parented level-0 node with a level-0 neighbour")
	}
	report := &proto.ChildReport{From: suitor.Ref()}
	refusal := &proto.Reparent{From: courted.Ref()}
	court := func() {
		suitor.courtRef(courted.Ref())
		courted.HandleMessage(suitor.Addr(), report)
		suitor.HandleMessage(courted.Addr(), refusal)
	}
	for i := 0; i < 16; i++ {
		court()
	}
	answered := sent(courted)
	if allocs := testing.AllocsPerRun(200, court); allocs != 0 {
		t.Fatalf("a refused courtship allocated %.1f times, want 0", allocs)
	}
	if suitor.courting != 0 || sent(courted)-answered != 201 {
		t.Fatalf("courtship left open (courting %d) or the report went unanswered (%d replies to 201)",
			suitor.courting, sent(courted)-answered)
	}

	// A join-redirect hop: a node far from the joiner's coordinate sends it
	// on towards a nearer peer (pooled JoinRedirect), and the joiner asks
	// that peer next (pooled JoinRequest).
	joiner, via := nodes[0], nodes[len(nodes)/2]
	closer, _ := via.table.Level0.Neighbors(via.ID())
	join := &proto.JoinRequest{From: joiner.Ref()}
	redirect := &proto.JoinRedirect{From: via.Ref(), Closer: closer}
	hop := func() {
		via.HandleMessage(joiner.Addr(), join)
		joiner.HandleMessage(via.Addr(), redirect)
	}
	for i := 0; i < 16; i++ {
		hop()
	}
	redirects, asked := sent(via), sent(joiner)
	if allocs := testing.AllocsPerRun(200, hop); allocs != 0 {
		t.Fatalf("a join-redirect hop allocated %.1f times, want 0", allocs)
	}
	if sent(via)-redirects != 201 || sent(joiner)-asked != 201 || via.table.Level0.Get(joiner.Addr()) != nil {
		t.Fatalf("%d redirects and %d onward requests for 201 hops, or the joiner was accepted",
			sent(via)-redirects, sent(joiner)-asked)
	}
}
