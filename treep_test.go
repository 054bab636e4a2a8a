package treep

import (
	"bytes"
	"fmt"
	"runtime/debug"
	"testing"
	"time"
)

func TestSimNetworkLookup(t *testing.T) {
	nw, err := NewSimNetwork(SimOptions{N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algo{AlgoG, AlgoNG, AlgoNGSA} {
		res, err := nw.Lookup(3, nw.NodeID(77), algo)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status != LookupFound || res.Best.ID != nw.NodeID(77) {
			t.Fatalf("%v: %+v", algo, res)
		}
	}
}

func TestSimNetworkValidation(t *testing.T) {
	if _, err := NewSimNetwork(SimOptions{N: 1}); err == nil {
		t.Fatal("N=1 accepted")
	}
}

func TestSimNetworkDHT(t *testing.T) {
	nw, err := NewSimNetwork(SimOptions{N: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := nw.Put(5, []byte("greeting"), []byte("hello")); err != nil {
		t.Fatal(err)
	}
	v, err := nw.Get(60, []byte("greeting"))
	if err != nil || string(v) != "hello" {
		t.Fatalf("get: %q %v", v, err)
	}
}

func TestSimNetworkVersionedStore(t *testing.T) {
	nw, err := NewSimNetwork(SimOptions{N: 80, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := nw.PutIf(5, []byte("cfg"), []byte("one"), AnyVersion)
	if err != nil || v1 == 0 {
		t.Fatalf("initial PutIf: v=%d err=%v", v1, err)
	}
	rec, err := nw.GetRecord(33, []byte("cfg"))
	if err != nil || string(rec.Value) != "one" || rec.Version != v1 {
		t.Fatalf("GetRecord: %+v %v (want version %d)", rec, err, v1)
	}
	// A stale base must conflict; the read version must succeed.
	if _, err := nw.PutIf(40, []byte("cfg"), []byte("stale"), AnyVersion); err != ErrConflict {
		t.Fatalf("stale PutIf: %v", err)
	}
	v2, err := nw.PutIf(40, []byte("cfg"), []byte("two"), rec.Version)
	if err != nil || v2 <= v1 {
		t.Fatalf("CAS PutIf: v=%d err=%v", v2, err)
	}
	if v, err := nw.Get(7, []byte("cfg")); err != nil || string(v) != "two" {
		t.Fatalf("final read: %q %v", v, err)
	}
	if _, err := nw.Get(7, []byte("missing")); err != ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}
}

// checkReadsAreKept stores eight values of one length, reads them all
// back through get, and only then compares them: the DHT lends a read the
// reply's own buffer, and the public API must copy it out before the next
// read reuses that buffer.
func checkReadsAreKept(t *testing.T, put func(k, v []byte) error, get func(k []byte) ([]byte, error)) {
	t.Helper()
	var keys, vals [][]byte
	for i := 0; i < 8; i++ {
		keys = append(keys, []byte(fmt.Sprintf("kept-%d", i)))
		vals = append(vals, []byte(fmt.Sprintf("value-%d", i)))
		if err := put(keys[i], vals[i]); err != nil {
			t.Fatalf("put %q: %v", keys[i], err)
		}
	}
	got := make([][]byte, len(keys))
	for i, k := range keys {
		v, err := get(k)
		if err != nil {
			t.Fatalf("get %q: %v", k, err)
		}
		got[i] = v
	}
	for i := range keys {
		if !bytes.Equal(got[i], vals[i]) {
			t.Errorf("the value read for %q became %q after later reads, want %q", keys[i], got[i], vals[i])
		}
	}
}

// TestSimNetworkReadsAreKept: values SimNetwork.Get and GetRecord return
// stay intact across further reads of other keys.
func TestSimNetworkReadsAreKept(t *testing.T) {
	nw, err := NewSimNetwork(SimOptions{N: 80, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	put := func(k, v []byte) error { return nw.Put(5, k, v) }
	checkReadsAreKept(t, put, func(k []byte) ([]byte, error) { return nw.Get(60, k) })
	checkReadsAreKept(t, put, func(k []byte) ([]byte, error) {
		rec, err := nw.GetRecord(60, k)
		return rec.Value, err
	})
}

// TestSimNetworkReadAllocs pins what a public read allocates, the
// maintenance that runs during its 100 ms steps included: 5 a read, Get
// or GetRecord, once a thousand reads have warmed the pools and slabs.
// Counted exactly, 200-read batches cost 5.34–5.60 allocations a Get, of
// which about 0.5 is maintenance (0.2–0.3 a step, about two steps a
// read); AllocsPerRun truncates that to 5. One more allocation a read,
// such as a wrapper closure around the read's callback, reads 6.
func TestSimNetworkReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	nw, err := NewSimNetwork(SimOptions{N: 200, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	keys := make([][]byte, 64)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
		if err := nw.Put(i%nw.N(), keys[i], []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	read := func(get func(origin int, key []byte) error) {
		if err := get(i*7%nw.N(), keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	}
	get := func(origin int, key []byte) error { _, err := nw.Get(origin, key); return err }
	getRecord := func(origin int, key []byte) error { _, err := nw.GetRecord(origin, key); return err }
	for i < 1000 {
		read(get)
	}
	for _, c := range []struct {
		name string
		get  func(origin int, key []byte) error
	}{{"Get", get}, {"GetRecord", getRecord}} {
		if allocs := testing.AllocsPerRun(200, func() { read(c.get) }); allocs > 5 {
			t.Errorf("SimNetwork.%s allocated %.0f times a read, want ≤ 5", c.name, allocs)
		}
	}
}

// TestSimNetworkStorageScenario seeds records through the public scenario
// API, churns the overlay, and checks the engine's durability verdict and
// an end-to-end read afterwards.
func TestSimNetworkStorageScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	nw, err := NewSimNetwork(SimOptions{N: 200, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	res := nw.RunScenario(
		StoreRecordsPhase{Count: 50},
		ChurnPhase{For: 10 * time.Second, JoinRate: 2, LeaveRate: 2},
		SettlePhase{For: 14 * time.Second},
	)
	for _, v := range res.Final {
		t.Errorf("violation: %s", v)
	}
	if len(res.Final) != 0 {
		t.Fatal("storage scenario left violations")
	}
	// Seeded records are reachable through the ordinary public read path.
	origin := -1
	for i := 0; i < nw.N(); i++ {
		if nw.Alive(i) {
			origin = i
			break
		}
	}
	if v, err := nw.Get(origin, []byte("rec-000007")); err != nil || string(v) != "v-rec-000007" {
		t.Fatalf("seeded record unreadable after churn: %q %v", v, err)
	}
}

func TestSimNetworkDiscovery(t *testing.T) {
	nw, err := NewSimNetwork(SimOptions{N: 80, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := nw.Directory(4)
	err = dir.Advertise(Resource{
		Name: "gpu-1", Attrs: map[string]string{"gpu": "a100"},
		Capacity: 4, Load: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rs, err := nw.Directory(40).Discover("gpu", "a100")
	if err != nil || len(rs) != 1 {
		t.Fatalf("discover: %v %v", rs, err)
	}
	best, err := nw.Directory(70).PickLeastLoaded("gpu", "a100")
	if err != nil || best.Name != "gpu-1" {
		t.Fatalf("pick: %+v %v", best, err)
	}
}

func TestSimNetworkKillAndHeal(t *testing.T) {
	nw, err := NewSimNetwork(SimOptions{N: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	killed := nw.KillRandomFraction(0.2)
	if killed == 0 {
		t.Fatal("nothing killed")
	}
	nw.Run(20 * time.Second)
	ok, total := 0, 0
	for i := 0; i < 40; i++ {
		origin := (i * 7) % nw.N()
		target := (i*13 + 3) % nw.N()
		if !nw.Alive(origin) || !nw.Alive(target) {
			continue
		}
		total++
		res, err := nw.Lookup(origin, nw.NodeID(target), AlgoG)
		if err == nil && res.Status == LookupFound && res.Best.ID == nw.NodeID(target) {
			ok++
		}
	}
	if total == 0 || ok < total*3/4 {
		t.Fatalf("after heal: %d/%d lookups ok", ok, total)
	}
}

func TestSimNetworkLevels(t *testing.T) {
	nw, err := NewSimNetwork(SimOptions{N: 120, Seed: 5, Children: CapacityChildren(2, 16)})
	if err != nil {
		t.Fatal(err)
	}
	levels := nw.Levels()
	if len(levels) < 2 {
		t.Fatalf("no hierarchy: %v", levels)
	}
	if levels[0] == 0 {
		t.Fatal("no level-0 peers?")
	}
}

// TestSimNetworkScenario drives the public scenario API: live churn with
// dynamic joins, then asserts every runtime invariant checker passes and
// the overlay (including scenario-joined peers) still resolves lookups
// and serves the DHT.
func TestSimNetworkScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	nw, err := NewSimNetwork(SimOptions{N: 150, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	before := nw.N()
	res := nw.RunScenario(
		ChurnPhase{For: 12 * time.Second, JoinRate: 2, LeaveRate: 2},
		SettlePhase{For: 14 * time.Second},
	)
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("churn injected nothing: %+v", res)
	}
	if nw.N() != before+res.Joins {
		t.Fatalf("population %d, want %d", nw.N(), before+res.Joins)
	}
	if len(res.Final) != 0 {
		for _, v := range res.Final {
			t.Errorf("violation: %s", v)
		}
		t.Fatalf("%d invariant violations after settle", len(res.Final))
	}
	if v := nw.CheckInvariants(); len(v) != 0 {
		t.Fatalf("CheckInvariants disagrees with scenario result: %v", v)
	}
	// A scenario-joined peer is a first-class citizen: resolvable by
	// lookup and attached to the DHT layer.
	joined := before // first spawned node's index
	if !nw.Alive(joined) {
		t.Skip("first joined peer was churned out again")
	}
	origin := -1
	for i := 0; i < before; i++ {
		if nw.Alive(i) {
			origin = i
			break
		}
	}
	if origin < 0 {
		t.Fatal("no original peer survived")
	}
	lr, err := nw.Lookup(origin, nw.NodeID(joined), AlgoG)
	if err != nil || lr.Status != LookupFound || lr.Best.ID != nw.NodeID(joined) {
		t.Fatalf("joined peer not resolvable: %+v %v", lr, err)
	}
	if err := nw.Put(joined, []byte("spawned"), []byte("ok")); err != nil {
		t.Fatalf("joined peer DHT put: %v", err)
	}
	if v, err := nw.Get(origin, []byte("spawned")); err != nil || string(v) != "ok" {
		t.Fatalf("get via original peer: %q %v", v, err)
	}
}

func TestUDPNodePair(t *testing.T) {
	a, err := StartUDPNode(UDPOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := StartUDPNode(UDPOptions{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if a.PeerCount() > 0 && b.PeerCount() > 0 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if a.PeerCount() == 0 || b.PeerCount() == 0 {
		t.Fatal("UDP pair never connected")
	}
	res, err := b.Lookup(a.ID(), AlgoG)
	if err != nil || res.Status != LookupFound {
		t.Fatalf("lookup: %+v %v", res, err)
	}

	// The storage stack runs over the same pair of real sockets.
	if err := a.Put([]byte("pair-key"), []byte("pair-value")); err != nil {
		t.Fatalf("put over UDP: %v", err)
	}
	if v, err := b.Get([]byte("pair-key")); err != nil || string(v) != "pair-value" {
		t.Fatalf("get over UDP: %q %v", v, err)
	}
	// Values UDPNode.GetRecord returns outlive the transport's reuse of
	// the decoded reply.
	checkReadsAreKept(t, a.Put, func(k []byte) ([]byte, error) {
		rec, err := b.GetRecord(k)
		return rec.Value, err
	})
}
