package simrt

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/dht"
	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/svc"
)

// dhtOverlay is a settled bulk-built cluster with a DHT service attached to
// every node.
func dhtOverlay(n int, seed int64, cfg core.Config) (*Cluster, []*dht.Service) {
	c := New(Options{N: n, Seed: seed, Bulk: true, Config: cfg})
	svcs := make([]*dht.Service, n)
	for i, nd := range c.Nodes {
		svcs[i] = dht.Attach(nd)
	}
	c.StartAll()
	c.Run(6 * time.Second)
	return c, svcs
}

// silentOwner serves a node's DHT but takes every fetch and store and
// drops it unanswered: an owner that never answers.
type silentOwner struct{ *dht.Service }

func (s silentOwner) Serve(from uint64, req proto.SvcMessage, respond func(proto.SvcMessage)) bool {
	switch req.Type() {
	case proto.TDHTFetch, proto.TDHTStore:
		respond(nil)
		return true
	}
	return s.Service.Serve(from, req, respond)
}

// ownerOf is the node nearest to a key's hash: the node a lookup on the
// settled overlay resolves the key to.
func ownerOf(c *Cluster, key []byte) *core.Node {
	h := idspace.HashKey(key)
	best := c.Nodes[0]
	for _, nd := range c.Nodes[1:] {
		if idspace.Dist(nd.ID(), h) < idspace.Dist(best.ID(), h) {
			best = nd
		}
	}
	return best
}

// remoteKey returns the first key of the given prefix that origin does not
// own.
func remoteKey(c *Cluster, origin *core.Node, prefix string) []byte {
	for i := 0; ; i++ {
		if key := []byte(fmt.Sprintf("%s-%d", prefix, i)); ownerOf(c, key) != origin {
			return key
		}
	}
}

// TestKilledOriginNeverCallsBack pins the kill guard: every timer a node
// sets runs behind its liveness, so an operation whose origin was
// fail-stopped never calls back — not with ErrTimeout from a call's
// deadline, not with ErrLookupFailed from a backoff that looks the owner up
// again. The benchmark books such an operation as abandoned; a late
// failure callback would turn it into a failed one.
func TestKilledOriginNeverCallsBack(t *testing.T) {
	c, svcs := dhtOverlay(64, 5, core.Config{LookupTimeout: time.Second})
	const o = 10
	origin, s := c.Nodes[o], svcs[o]
	p := s.Plane()
	// Owners that never answer, each on a plane of its own that takes over
	// the node's extension slot: the calls are still in flight when the
	// origin dies.
	for i, nd := range c.Nodes {
		if i != o {
			new(svc.Plane).Init(nd, silentOwner{svcs[i]}, proto.TDHTStoreAck, proto.TDHTFetchReply, proto.TDHTReplicateAck)
		}
	}
	var fired []string

	// A CallKey whose owner lookup fails while the origin is cut off: it
	// backs off for half its 20 s timeout before looking up again.
	c.PartitionBy(func(n *core.Node) bool { return n == origin })
	far := c.Nodes[40].ID()
	p.CallKey(far, proto.AlgoG, &proto.DHTFetch{Key: far}, svc.CallOpts{Timeout: 20 * time.Second, Retries: 1},
		func(proto.NodeRef, proto.SvcMessage, error) { fired = append(fired, "CallKey") })
	for i := 0; p.Stats.Retries == 0; i++ {
		if i == 300 {
			t.Fatal("the cut-off origin's lookup never failed")
		}
		c.Run(10 * time.Millisecond)
	}
	c.Heal()

	s.Get(remoteKey(c, origin, "get"), func([]byte, error) { fired = append(fired, "Get") })
	s.Put(remoteKey(c, origin, "put"), []byte("v"), func(error) { fired = append(fired, "Put") })
	for i := 0; p.Pending() < 2; i++ {
		if i == 500 {
			t.Fatalf("the Get's and the Put's calls were never in flight together (%d pending)", p.Pending())
		}
		c.Run(10 * time.Millisecond)
	}
	c.Kill(origin)
	c.Run(30 * time.Second)
	if len(fired) != 0 {
		t.Fatalf("callbacks fired after their origin was killed: %v", fired)
	}
}

// TestRemoteGetAllocs pins the read path: a Get answered by a remote owner
// allocates the value it hands back, and nothing of its own on the way
// through the lookup, the service plane, the DHT and the kernel. Each
// figure counts a window's background maintenance too; the pin is the
// floor over windows with the collector off, as TestShardedSteadyStateAllocs
// takes it, because a collection empties the process-wide pools the
// records come from.
func TestRemoteGetAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, svcs := dhtOverlay(64, 3, core.Config{})
	value := make([]byte, 64)
	type read struct {
		s   *dht.Service
		key []byte
	}
	var reads []read
	for i := 0; i < 64; i++ {
		key := []byte(fmt.Sprintf("rec/%d", i))
		svcs[i].Put(key, value, func(error) {})
		if origin := (i*7 + 1) % len(svcs); ownerOf(c, key) != c.Nodes[origin] {
			reads = append(reads, read{svcs[origin], key})
		}
	}
	c.Run(6 * time.Second)

	got := 0
	cb := func(v []byte, err error) {
		if err == nil && len(v) == len(value) {
			got++
		}
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	floor := math.Inf(1)
	for w := 0; w < 8; w++ {
		got = 0
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for _, r := range reads {
			r.s.Get(r.key, cb)
		}
		c.Run(2 * time.Second)
		runtime.ReadMemStats(&m1)
		if got != len(reads) {
			t.Fatalf("window %d: %d of %d reads answered", w, got, len(reads))
		}
		floor = math.Min(floor, float64(m1.Mallocs-m0.Mallocs)/float64(len(reads)))
	}
	t.Logf("a remote Get: %.2f allocations (floor of 8 windows of %d reads)", floor, len(reads))
	if floor > 3 {
		t.Fatalf("a remote Get allocates %.2f times, want at most 3", floor)
	}
}
