package udptransport

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/dht"
	"treep/internal/idspace"
	"treep/internal/proto"
)

func TestAddrPacking(t *testing.T) {
	cases := []string{"127.0.0.1:4000", "10.1.2.3:65535", "192.168.0.1:1"}
	for _, s := range cases {
		a, err := net.ResolveUDPAddr("udp4", s)
		if err != nil {
			t.Fatal(err)
		}
		u := AddrToUint(a)
		if u == 0 {
			t.Fatalf("%s packed to 0", s)
		}
		back := UintToAddr(u)
		if !back.IP.Equal(a.IP) || back.Port != a.Port {
			t.Fatalf("%s round-tripped to %s", s, back)
		}
	}
	if AddrToUint(&net.UDPAddr{IP: net.ParseIP("::1"), Port: 1}) != 0 {
		t.Fatal("IPv6 must be rejected")
	}
	if AddrToUint(&net.UDPAddr{IP: net.IPv4(1, 2, 3, 4), Port: 0}) != 0 {
		t.Fatal("port 0 must be rejected")
	}
}

// startNodes brings up n UDP nodes on loopback, joined through the first.
func startNodes(t *testing.T, n int) []*Transport {
	return startNodesVia(t, n, func(cfg core.Config, seed int64) (*Transport, error) {
		return Listen(cfg, "127.0.0.1:0", seed)
	})
}

// startNodesVia is startNodes with the transport constructor chosen by the
// caller (the portable-fallback test builds its nodes over singleIO here).
func startNodesVia(t *testing.T, n int, listen func(core.Config, int64) (*Transport, error)) []*Transport {
	t.Helper()
	trs := make([]*Transport, 0, n)
	for i := 0; i < n; i++ {
		cfg := core.Defaults()
		cfg.ID = idspace.FromFraction((float64(i) + 0.5) / float64(n))
		tr, err := listen(cfg, int64(i+1))
		if err != nil {
			t.Fatalf("listen %d: %v", i, err)
		}
		trs = append(trs, tr)
	}
	t.Cleanup(func() {
		for _, tr := range trs {
			tr.Close()
		}
	})
	boot := trs[0].OverlayAddr()
	for i, tr := range trs {
		if i == 0 {
			if err := tr.Start(); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := tr.Join(boot); err != nil {
			t.Fatal(err)
		}
	}
	return trs
}

func TestUDPOverlayFormsAndResolves(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	trs := startNodes(t, 12)
	// Let the overlay converge in real time.
	time.Sleep(2 * time.Second)

	// Every node should know at least one peer.
	for i, tr := range trs {
		var l0 int
		if err := tr.Do(func(n *core.Node) { l0 = n.Table().Level0.Len() }); err != nil {
			t.Fatal(err)
		}
		if l0 == 0 {
			t.Fatalf("node %d isolated over UDP", i)
		}
	}

	// Resolve node 9's ID from node 3 over real sockets.
	target := trs[9]
	var targetID idspace.ID
	_ = target.Do(func(n *core.Node) { targetID = n.ID() })

	resCh := make(chan core.LookupResult, 1)
	err := trs[3].Do(func(n *core.Node) {
		n.Lookup(targetID, proto.AlgoG, func(r core.LookupResult) { resCh <- r })
	})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-resCh:
		if r.Status != core.LookupFound || r.Best.ID != targetID {
			t.Fatalf("lookup result %+v", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lookup never resolved over UDP")
	}

	// Wire health: traffic flowed, everything decoded, and the batch
	// plane actually amortised syscalls (each syscall moved ≥1 message,
	// and on the mmsg path some moved several).
	st := trs[3].Stats()
	if st.Recv == 0 || st.Sent == 0 {
		t.Fatalf("no traffic: %+v", st)
	}
	if st.DecodeErrs != 0 {
		t.Fatalf("%d decode errors on the wire", st.DecodeErrs)
	}
	if st.SendSyscalls > st.Sent || st.SendSyscalls == 0 {
		t.Fatalf("send syscalls %d vs %d datagrams: flush accounting broken", st.SendSyscalls, st.Sent)
	}
}

func TestHierarchyEmergesOverUDP(t *testing.T) {
	trs := startNodes(t, 10)
	deadline := time.Now().Add(6 * time.Second)
	for time.Now().Before(deadline) {
		levels := map[uint8]int{}
		for _, tr := range trs {
			_ = tr.Do(func(n *core.Node) { levels[n.MaxLevel()]++ })
		}
		if len(levels) >= 2 {
			t.Logf("UDP overlay levels: %v", levels)
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatal("no hierarchy emerged over UDP within the deadline")
}

// TestDHTPutGetOverUDP is the end-to-end proof that DHT storage is not a
// simulation artifact: the identical Put/Get code path (request ids,
// retries, versioned records, replication) runs here over real UDP sockets and the
// binary codec, across a multi-node cluster.
func TestDHTPutGetOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP cluster; skipped with -short")
	}
	trs := startNodes(t, 10)
	svcs := make([]*dht.Service, len(trs))
	for i, tr := range trs {
		i := i
		if err := tr.Do(func(n *core.Node) { svcs[i] = dht.Attach(n) }); err != nil {
			t.Fatal(err)
		}
	}
	// Let the overlay converge in real time.
	time.Sleep(2 * time.Second)

	// Store through node 2, with several keys so multiple owners serve.
	keys := []string{"alpha", "bravo", "charlie", "delta"}
	for _, k := range keys {
		errCh := make(chan error, 1)
		if err := trs[2].Do(func(*core.Node) {
			svcs[2].Put([]byte(k), []byte("value-"+k), func(e error) { errCh <- e })
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-errCh:
			if err != nil {
				t.Fatalf("put %q over UDP: %v", k, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("put %q never acknowledged over UDP", k)
		}
	}

	// Read back through an unrelated node.
	for _, k := range keys {
		type out struct {
			rec dht.Record
			err error
		}
		ch := make(chan out, 1)
		if err := trs[7].Do(func(*core.Node) {
			svcs[7].GetRecord([]byte(k), func(r dht.Record, e error) { ch <- out{r, e} })
		}); err != nil {
			t.Fatal(err)
		}
		select {
		case o := <-ch:
			if o.err != nil || string(o.rec.Value) != "value-"+k {
				t.Fatalf("get %q over UDP: %q %v", k, o.rec.Value, o.err)
			}
			if o.rec.Version == 0 {
				t.Fatalf("get %q: version 0 on a stored record", k)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("get %q never resolved over UDP", k)
		}
	}

	// Conditional store semantics hold over the wire too.
	ch := make(chan error, 1)
	if err := trs[4].Do(func(*core.Node) {
		svcs[4].PutIf([]byte("alpha"), []byte("stale"), dht.AnyVersion,
			func(_ uint64, e error) { ch <- e })
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-ch:
		if !errors.Is(err, dht.ErrConflict) {
			t.Fatalf("stale CAS over UDP: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("CAS never resolved over UDP")
	}

	// Replication happened across sockets: the records live on more nodes
	// than just their owners.
	time.Sleep(1 * time.Second)
	holders := 0
	for i, tr := range trs {
		i := i
		var n int
		_ = tr.Do(func(*core.Node) { n = svcs[i].Len() })
		holders += n
	}
	if holders < len(keys)*2 {
		t.Fatalf("only %d copies of %d records across the UDP cluster", holders, len(keys))
	}
}

// TestFiftyNodeClusterServesReads is the real-plane health check at the
// largest population the repository has real-socket evidence for: fifty
// loopback nodes form one overlay, and a few hundred DHT reads issued
// from random members all hit, with nothing malformed or oversized on
// the wire.
func TestFiftyNodeClusterServesReads(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP cluster; skipped with -short")
	}
	const n, records, gets = 50, 16, 300
	trs := startNodes(t, n)
	svcs := make([]*dht.Service, n)
	for i, tr := range trs {
		if err := tr.Do(func(nd *core.Node) { svcs[i] = dht.Attach(nd) }); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for connected := 0; connected < n; time.Sleep(100 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d nodes know a peer after 10s", connected, n)
		}
		connected = 0
		for _, tr := range trs {
			var l0 int
			_ = tr.Do(func(nd *core.Node) { l0 = nd.Table().Level0.Len() })
			if l0 > 0 {
				connected++
			}
		}
	}
	// Elections and the first child reports settle before the workload.
	time.Sleep(2 * time.Second)

	// call runs one DHT operation on node i's loop and waits for its result.
	call := func(i int, op func(done func(error))) error {
		ch := make(chan error, 1)
		if err := trs[i].Do(func(*core.Node) { op(func(e error) { ch <- e }) }); err != nil {
			return err
		}
		select {
		case err := <-ch:
			return err
		case <-time.After(5 * time.Second):
			return errors.New("no reply within 5s")
		}
	}
	keys := make([][]byte, records)
	for k := range keys {
		keys[k] = []byte(fmt.Sprintf("rec-%d", k))
		if err := call(k%n, func(done func(error)) { svcs[k%n].Put(keys[k], keys[k], done) }); err != nil {
			t.Fatalf("put %d: %v", k, err)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for g := 0; g < gets; g++ {
		i, key := rng.Intn(n), keys[rng.Intn(records)]
		err := call(i, func(done func(error)) {
			svcs[i].GetRecord(key, func(r dht.Record, e error) {
				if e == nil && string(r.Value) != string(key) {
					e = fmt.Errorf("value %q", r.Value)
				}
				done(e)
			})
		})
		if err != nil {
			t.Fatalf("get %d of %q from node %d: %v", g, key, i, err)
		}
	}
	for i, tr := range trs {
		if st := tr.Stats(); st.DecodeErrs != 0 || st.Oversize != 0 || st.Recv == 0 {
			t.Errorf("node %d wire counters unhealthy: %+v", i, st)
		}
	}
}

// TestGracefulLeaveOverUDP checks the departure announcement: a peer that
// closes cleanly disappears from its direct peers' tables immediately, not
// after a failure-detection TTL. A pair guarantees the survivor is a
// direct peer (third parties learn of a departure by hearsay expiry, which
// is the TTL path by design).
func TestGracefulLeaveOverUDP(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP cluster; skipped with -short")
	}
	trs := startNodes(t, 2)
	survivor, leaver := trs[0], trs[1]
	leaverAddr := leaver.OverlayAddr()
	deadline := time.Now().Add(5 * time.Second)
	known := false
	for time.Now().Before(deadline) && !known {
		_ = survivor.Do(func(n *core.Node) { known = n.Table().Level0.Get(leaverAddr) != nil })
		time.Sleep(50 * time.Millisecond)
	}
	if !known {
		t.Fatal("pair never connected")
	}

	if err := leaver.Do(func(n *core.Node) { n.Depart() }); err != nil {
		t.Fatal(err)
	}
	// Well under the 6 s EntryTTL: removal must come from the
	// announcement, not expiry.
	time.Sleep(300 * time.Millisecond)
	var still bool
	_ = survivor.Do(func(n *core.Node) { still = n.Table().Level0.Get(leaverAddr) != nil })
	if still {
		t.Fatal("survivor still lists the departed peer 300ms after Leave")
	}
}

// goroutine names the calling goroutine by the header runtime.Stack prints.
func goroutine() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestLoopTimers pins the timers of one transport: one-shots fire in due
// order on the loop goroutine; a periodic timer cancelled from its own
// callback stops; a loop held up for three periods then fires the three
// missed ticks, each at its own due time (fixed rate, as in the
// simulator); and Close returns promptly with timers still pending.
func TestLoopTimers(t *testing.T) {
	cfg := core.Defaults()
	cfg.ID = 5
	tr, err := Listen(cfg, "127.0.0.1:0", 5)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{tr: tr, addr: tr.OverlayAddr()}
	on := func(fn func()) {
		t.Helper()
		if err := tr.Do(func(*core.Node) { fn() }); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			ok := false
			on(func() { ok = cond() })
			if ok {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: not within 2s", what)
			}
		}
	}

	var loop string
	var order []int
	offLoop := 0
	on(func() {
		loop = goroutine()
		for i, d := range []time.Duration{30, 10, 20} {
			e.SetTimer(d*time.Millisecond, func() {
				order = append(order, i)
				if goroutine() != loop {
					offLoop++
				}
			})
		}
	})
	waitFor("three one-shots", func() bool { return len(order) == 3 })
	on(func() {
		if fmt.Sprint(order) != "[1 2 0]" || offLoop != 0 {
			t.Errorf("one-shots fired as %v, %d off the loop; want [1 2 0], none", order, offLoop)
		}
	})

	ticks := 0
	var self core.Timer
	on(func() {
		self = e.SetPeriodic(5*time.Millisecond, func() {
			if ticks++; ticks == 3 && !self.Cancel() {
				t.Error("a periodic timer could not cancel itself from its own callback")
			}
		})
	})
	waitFor("three ticks", func() bool { return ticks >= 3 })
	time.Sleep(30 * time.Millisecond)
	on(func() {
		if ticks != 3 || self.Cancel() {
			t.Errorf("%d ticks of a timer that cancelled itself at the third", ticks)
		}
	})

	const period = 20 * time.Millisecond
	var t0 time.Duration
	var at []time.Duration
	var p core.Timer
	on(func() {
		t0 = e.Now()
		p = e.SetPeriodic(period, func() { at = append(at, e.Now()) })
	})
	waitFor("the first tick", func() bool { return len(at) >= 1 })
	before := 0
	on(func() { before = len(at); time.Sleep(3*period + period/2) })
	on(func() {
		p.Cancel()
		if len(at) < before+3 {
			t.Errorf("%d ticks fired after holding the loop for three periods, want the 3 missed", len(at)-before)
		}
		for i, a := range at {
			if want := time.Duration(i+1) * period; a-t0 != want {
				t.Errorf("tick %d due at %v fired at %v", i, want, a-t0)
			}
		}
	})

	on(func() {
		e.SetTimer(time.Hour, func() {})
		e.SetPeriodic(time.Minute, func() {})
	})
	begin := time.Now()
	tr.Close()
	if took := time.Since(begin); took > time.Second {
		t.Errorf("Close with timers pending took %v", took)
	}
}

func TestCloseIsIdempotentAndDoFailsAfterClose(t *testing.T) {
	cfg := core.Defaults()
	cfg.ID = 42
	tr, err := Listen(cfg, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	tr.Close()
	tr.Close()
	if err := tr.Do(func(*core.Node) {}); err == nil {
		t.Fatal("Do after Close must fail")
	}
}
