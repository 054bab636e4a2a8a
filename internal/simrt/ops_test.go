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
	"treep/internal/netsim"
	"treep/internal/proto"
)

// dhtOverlay is a settled bulk-built cluster with a DHT service attached to
// every node.
func dhtOverlay(n int, seed int64, cfg core.Config, netOpts ...netsim.Option) (*Cluster, []*dht.Service) {
	c := New(Options{N: n, Seed: seed, Bulk: true, Config: cfg, NetOpts: netOpts})
	svcs := make([]*dht.Service, n)
	for i, nd := range c.Nodes {
		svcs[i] = dht.Attach(nd)
	}
	c.StartAll()
	c.Run(6 * time.Second)
	return c, svcs
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

// TestRemoteGetAllocs pins the read path: a Get answered by a remote owner
// allocates nothing of its own, on the way through the lookup, the DHT and
// the kernel or for the value it hands back, which is the reply's own
// buffer, lent to the callback. A copy of that value is one allocation a
// read, so the pin trips if it comes back. Each figure counts a window's
// background maintenance too; the pin is the floor over windows with the
// collector off, as TestShardedSteadyStateAllocs takes it, because a
// collection empties the process-wide pools the records come from.
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
	if floor > 1 {
		t.Fatalf("a remote Get allocates %.2f times, want at most 1", floor)
	}
}

// TestRemoteGetIsOneRoutedExchange: a Get answered by a remote owner is the
// owner lookup carrying the fetch and the owner's reply to the origin —
// no LookupReply answering the lookup, no DHTFetch datagram of its own, one
// DHTFetchReply. (A hop acknowledgement is a LookupReply on the wire, the
// failover's sign of life, and is not counted.)
func TestRemoteGetIsOneRoutedExchange(t *testing.T) {
	counting := false
	sent := map[proto.MsgType]int{}
	trace := func(e netsim.TraceEvent) {
		m, ok := e.Payload.(proto.Message)
		if r, ack := m.(*proto.LookupReply); !ok || !counting || ack && r.Status == proto.LookupHopAck {
			return
		}
		sent[m.Type()]++
	}
	c, svcs := dhtOverlay(64, 3, core.Config{}, netsim.WithTrace(trace))
	const o = 10
	key := remoteKey(c, c.Nodes[o], "one-trip")
	stored := false
	svcs[o].Put(key, []byte("v"), func(err error) { stored = err == nil })
	c.Run(6 * time.Second) // the ack, the replica pushes, and quiet
	if !stored {
		t.Fatal("the put failed")
	}

	counting = true
	var got []byte
	svcs[o].Get(key, func(v []byte, err error) { got = append([]byte(nil), v...) })
	c.Run(2 * time.Second)
	counting = false
	if string(got) != "v" {
		t.Fatalf("the get read %q", got)
	}
	if sent[proto.TDHTFetch] != 0 || sent[proto.TLookupReply] != 0 || sent[proto.TDHTFetchReply] != 1 {
		t.Fatalf("a remote get sent %d DHTFetch, %d LookupReply and %d DHTFetchReply, want 0, 0 and 1 (%d lookup requests)",
			sent[proto.TDHTFetch], sent[proto.TLookupReply], sent[proto.TDHTFetchReply], sent[proto.TLookupRequest])
	}
}

// TestRoutedPutReplaysItsAck: the owner of a routed store keys its ack
// replay and the record's origin on the writer, never on the hop that
// delivered the request, and the request refreshes nothing it did not
// carry first-hand. The first ack is lost; the origin's re-issued request
// is answered from the memo with the version already assigned (a
// conditional store applied twice would answer a conflict).
func TestRoutedPutReplaysItsAck(t *testing.T) {
	var origin, owner *core.Node
	watching := false
	direct, routed := 0, 0 // datagrams origin → owner, requests reaching owner from another hop
	trace := func(e netsim.TraceEvent) {
		if !watching || e.Dropped || uint64(e.To) != owner.Addr() {
			return
		}
		if uint64(e.From) == origin.Addr() {
			direct++
		} else if _, ok := e.Payload.(*proto.LookupRequest); ok {
			routed++
		}
	}
	c, svcs := dhtOverlay(64, 5, core.Config{}, netsim.WithTrace(trace))
	// An origin whose key's owner holds a level-0 entry for it, not
	// direct-fresh (the two do not exchange keep-alives; the bulk build's
	// entries lapse in the first EntryTTL), and whose lookup of the key
	// reaches the owner through another hop: the owner has a LastDirect for
	// the origin that a routed request must not refresh.
	c.Run(core.EntryTTL)
	var key []byte
	var s *dht.Service
	for i := 0; key == nil && i < len(c.Nodes); i++ {
		for j := 0; key == nil && j < 16; j++ {
			k := []byte(fmt.Sprintf("memo-%d-%d", i, j))
			w := ownerOf(c, k)
			heardOf := func() bool { // a level-0 entry, not direct-fresh
				e := w.Table().Level0.Get(c.Nodes[i].Addr())
				return e != nil && !e.DirectFresh(c.Now(), core.EntryTTL)
			}
			if w == c.Nodes[i] || !heardOf() {
				continue
			}
			hops := 0
			c.Nodes[i].Lookup(idspace.HashKey(k), proto.AlgoG, func(r core.LookupResult) { hops = r.Hops })
			c.Run(time.Second)
			// The probe's second may see the entry lapse: check again.
			if hops >= 2 && heardOf() {
				origin, owner, key, s = c.Nodes[i], w, k, svcs[i]
			}
		}
	}
	if key == nil {
		t.Fatal("no key of an origin its owner has heard of is more than a hop away")
	}
	var ownerSvc *dht.Service
	for i, nd := range c.Nodes {
		if nd == owner {
			ownerSvc = svcs[i]
		}
	}
	entry := func() (time.Duration, bool) {
		if e := owner.Table().Level0.Get(origin.Addr()); e != nil {
			return e.LastDirect, true
		}
		return 0, false
	}
	// The entry is hearsay: it may lapse while the put runs, and a Touch
	// refreshes only an entry that exists. So it is checked present and
	// unchanged the moment the first request has landed, and unchanged at
	// the end if it is still there.
	before, has := entry()
	if !has {
		t.Fatal("the owner's entry for the origin lapsed before the put")
	}

	c.Net.SetLinkFilter(func(from, to netsim.Addr) bool {
		return uint64(from) != owner.Addr() || uint64(to) != origin.Addr()
	})
	watching = true
	var version uint64
	var putErr error
	done := false
	s.PutIf(key, []byte("v"), dht.AnyVersion, func(v uint64, err error) { version, putErr, done = v, err, true })
	for i := 0; ; i++ {
		if _, ok := ownerSvc.LocalHashed(idspace.HashKey(key)); ok {
			if now, has := entry(); !has || now != before {
				t.Fatalf("the owner's entry for the origin once the store landed: LastDirect %v before, %v after (present %v)", before, now, has)
			}
			break // stored, and the ack sent into the filter
		}
		if i == 100 {
			t.Fatal("the store never reached its owner")
		}
		c.Run(10 * time.Millisecond)
	}
	c.Net.SetLinkFilter(nil)
	for i := 0; !done; i++ {
		if i == 300 {
			t.Fatal("the put never completed")
		}
		c.Run(100 * time.Millisecond)
	}
	watching = false

	if putErr != nil || version != 1 {
		t.Fatalf("the re-served put answered version %d, %v; want 1, nil", version, putErr)
	}
	if ownerSvc.Stats.PutsServed < 2 {
		t.Fatalf("the owner served the store %d times: the lost ack was never re-served", ownerSvc.Stats.PutsServed)
	}
	rec, ok := ownerSvc.LocalHashed(idspace.HashKey(key))
	if !ok || rec.Version != 1 || rec.Origin != origin.Addr() {
		t.Fatalf("the owner holds %+v (ok %v); want version 1 from the writer %d", rec, ok, origin.Addr())
	}
	if direct != 0 || routed == 0 {
		t.Fatalf("%d datagrams went from the origin to the owner and %d requests came through other hops", direct, routed)
	}
	if after, has := entry(); has && after != before {
		t.Fatalf("the owner's entry for the origin: LastDirect %v before, %v after (present %v)", before, after, has)
	}
}
