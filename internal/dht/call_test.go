package dht

import (
	"errors"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
)

// holdOwnID gives s a record under its node's own ID, whose version is that
// ID so that a reply names the key it answers, and stops s's maintenance,
// which would place replicas of it: s is the key's owner and its one holder.
func holdOwnID(s *Service) idspace.ID {
	k := s.node.ID()
	s.merge(k, nil, uint64(k), 1)
	s.maintTimer.Cancel()
	return k
}

// answersLate makes s serve every fetch it is sent after the given delay: a
// test hook wrapping the extension's own.
func answersLate(s *Service, after time.Duration) {
	s.node.SetExtension(func(from uint64, msg proto.Message) {
		if f, ok := msg.(*proto.DHTFetch); ok {
			req := *f // the delivered message goes back to its pool
			s.node.SetTimer(after, func() { s.handle(from, &req) })
			return
		}
		s.handle(from, msg)
	})
}

// fetchVersion reads the version a fetch reply carries, 0 for a miss.
func fetchVersion(r proto.SvcMessage) uint64 {
	if rep, ok := r.(*proto.DHTFetchReply); ok && rep.Found {
		return rep.Version
	}
	return 0
}

func TestCallRoundTrip(t *testing.T) {
	c, svcs := dhtCluster(t, 20, 1)
	to := svcs[c.Nodes[7].Addr()]
	k := holdOwnID(to)
	var got uint64
	var err error
	done := false
	svcs[c.Nodes[0].Addr()].callPeer(to.node.Addr(), &proto.DHTFetch{Key: k, Local: true}, requestTimeout, 0,
		func(r proto.SvcMessage, e error) { got, err, done = fetchVersion(r), e, true })
	c.Run(2 * time.Second)
	if !done || err != nil {
		t.Fatalf("call: done=%v err=%v", done, err)
	}
	if got != uint64(k) {
		t.Fatalf("wrong response: version %d, want %d", got, k)
	}
	if to.Stats.GetsServed != 1 {
		t.Fatalf("server GetsServed=%d", to.Stats.GetsServed)
	}
}

func TestCallTimeoutOnDeadPeer(t *testing.T) {
	c, svcs := dhtCluster(t, 10, 3)
	dead := c.Nodes[5]
	c.Kill(dead)
	s := svcs[c.Nodes[0].Addr()]
	var err error
	done := false
	s.callPeer(dead.Addr(), &proto.DHTFetch{Key: 1, Local: true}, time.Second, 0,
		func(_ proto.SvcMessage, e error) { err = e; done = true })
	c.Run(3 * time.Second)
	if !done || !errors.Is(err, ErrTimeout) {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if s.pending.Len() != 0 {
		t.Fatalf("pending leak: %d", s.pending.Len())
	}
}

func TestCallRetriesThroughLoss(t *testing.T) {
	// 40% datagram loss: a single attempt fails often, four retries almost
	// never do (the response can be lost too, hence the generous budget).
	c, svcs := dhtCluster(t, 12, 4, netsim.WithLoss(0.4))
	s, to := svcs[c.Nodes[2].Addr()], c.Nodes[8].Addr()
	ok := 0
	const calls = 20
	for i := 0; i < calls; i++ {
		s.callPeer(to, &proto.DHTFetch{Key: idspace.ID(i), Local: true}, 500*time.Millisecond, 4,
			func(r proto.SvcMessage, e error) {
				if e == nil {
					ok++
				}
			})
		c.Run(4 * time.Second)
	}
	if ok < calls*3/4 {
		t.Fatalf("only %d/%d calls survived 40%% loss with retries", ok, calls)
	}
	if s.Stats.Retries == 0 {
		t.Fatal("no retries recorded under 40% loss")
	}
}

func TestCallKeyResolvesOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c, svcs := dhtCluster(t, 100, 5)
	// Use a node's own coordinate so the expected owner is unambiguous.
	target := c.Nodes[60].ID()
	var owner proto.NodeRef
	var err error
	done := false
	svcs[c.Nodes[3].Addr()].callOwner(target, &proto.DHTFetch{Key: target},
		func(r proto.SvcMessage, e error) {
			if err, done = e, true; e == nil {
				owner = r.(*proto.DHTFetchReply).From
			}
		})
	c.Run(4 * time.Second)
	if !done || err != nil {
		t.Fatalf("callkey: done=%v err=%v", done, err)
	}
	if owner.ID != target {
		t.Fatalf("owner %v, want %v", owner.ID, target)
	}
}

func TestCallKeyLocalOwner(t *testing.T) {
	c, svcs := dhtCluster(t, 10, 6)
	// A node's own ID resolves to itself: the call must serve locally.
	self := c.Nodes[2]
	done := false
	svcs[self.Addr()].callOwner(self.ID(), &proto.DHTFetch{Key: self.ID()},
		func(r proto.SvcMessage, e error) {
			if e != nil || r.(*proto.DHTFetchReply).From.Addr != self.Addr() {
				t.Fatalf("local owner: %v %v", r, e)
			}
			done = true
		})
	c.Run(2 * time.Second)
	if !done {
		t.Fatal("callkey never resolved")
	}
}

// TestAsyncHandlerResponds: an owner that misses consults its replicas
// before it answers (read-repair), and its answer comes back to the call.
func TestAsyncHandlerResponds(t *testing.T) {
	c, svcs := dhtCluster(t, 8, 8)
	owner := svcs[c.Nodes[5].Addr()]
	k := owner.node.ID()
	replica := svcs[owner.ReplicaTargets(k)[0].Addr]
	replica.merge(k, nil, 77, 1)
	replica.maintTimer.Cancel() // no handoff: the owner must repair on the read
	var got uint64
	done := false
	svcs[c.Nodes[1].Addr()].callPeer(owner.node.Addr(), &proto.DHTFetch{Key: k}, requestTimeout, 0,
		func(r proto.SvcMessage, e error) {
			if e != nil {
				t.Fatalf("async response: %v", e)
			}
			got, done = fetchVersion(r), true
		})
	c.Run(3 * time.Second)
	if !done || got != 77 || owner.Stats.Repairs != 1 {
		t.Fatalf("done=%v version=%d repairs=%d, want an answer of version 77 after one repair", done, got, owner.Stats.Repairs)
	}
}

func TestLateResponseAbsorbed(t *testing.T) {
	c, svcs := dhtCluster(t, 8, 9)
	// Answer after the caller's deadline: the caller must see exactly one
	// callback (the timeout), and the late response must be dropped.
	to := svcs[c.Nodes[4].Addr()]
	answersLate(to, 2*time.Second)
	fired := 0
	var firstErr error
	svcs[c.Nodes[0].Addr()].callPeer(to.node.Addr(), &proto.DHTFetch{Key: 3, Local: true}, 500*time.Millisecond, 0,
		func(_ proto.SvcMessage, e error) {
			fired++
			if fired == 1 {
				firstErr = e
			}
		})
	c.Run(5 * time.Second)
	if fired != 1 || !errors.Is(firstErr, ErrTimeout) {
		t.Fatalf("fired=%d err=%v", fired, firstErr)
	}
}

// TestLateResponseMissesTheNextCall: a call that timed out hands its record
// to the next call. Its late response must be absorbed by the id check,
// not delivered to the call that now holds the record.
func TestLateResponseMissesTheNextCall(t *testing.T) {
	c, svcs := dhtCluster(t, 8, 9)
	s, slow, slower := svcs[c.Nodes[0].Addr()], svcs[c.Nodes[4].Addr()], svcs[c.Nodes[5].Addr()]
	k1, k2 := holdOwnID(slow), holdOwnID(slower)
	answersLate(slow, time.Second)
	answersLate(slower, 2*time.Second)
	var first []error
	var second []uint64
	s.callPeer(slow.node.Addr(), &proto.DHTFetch{Key: k1, Local: true}, 500*time.Millisecond, 0,
		func(_ proto.SvcMessage, err error) { first = append(first, err) })
	c.Run(600 * time.Millisecond)
	// The first call has timed out; its answer arrives while this one waits.
	s.callPeer(slower.node.Addr(), &proto.DHTFetch{Key: k2, Local: true}, 3*time.Second, 0,
		func(r proto.SvcMessage, err error) {
			if err != nil {
				t.Errorf("second call: %v", err)
				return
			}
			second = append(second, fetchVersion(r))
		})
	c.Run(5 * time.Second)
	if len(first) != 1 || !errors.Is(first[0], ErrTimeout) {
		t.Fatalf("first call answered %v, want one ErrTimeout", first)
	}
	if len(second) != 1 || second[0] != uint64(k2) {
		t.Fatalf("second call answered with versions %v, want [%d]: a late answer reached it", second, k2)
	}
	if s.pending.Len() != 0 {
		t.Fatalf("%d calls still pending", s.pending.Len())
	}
}

// TestSixtyFourInFlight holds 64 lookups from one origin, then 64 calls on
// one service, in flight at the same instant and sees every one through:
// the pending tables are scanned linearly and sized for the five a loaded
// peer has been measured to hold (DESIGN.md §16).
func TestSixtyFourInFlight(t *testing.T) {
	const n = 64
	c, svcs := dhtCluster(t, 80, 6)
	node := c.Nodes[0]
	s := svcs[node.Addr()]
	keys := make([]idspace.ID, len(c.Nodes))
	for i, nd := range c.Nodes {
		keys[i] = holdOwnID(svcs[nd.Addr()])
	}

	answered := map[idspace.ID]int{}
	for _, key := range keys[len(keys)-n:] {
		s.callOwner(key, &proto.DHTFetch{Key: key}, func(r proto.SvcMessage, err error) {
			if err != nil || fetchVersion(r) != uint64(key) {
				t.Errorf("key %v: %v %#v", key, err, r)
			}
			answered[key]++
		})
	}
	if got := node.PendingLookups(); got < n*3/4 {
		t.Fatalf("%d lookups in flight at once, want most of %d", got, n)
	}
	c.Run(10 * time.Second)
	if len(answered) != n || node.PendingLookups() != 0 || s.pending.Len() != 0 {
		t.Fatalf("%d of %d keys answered; %d lookups and %d calls still pending", len(answered), n, node.PendingLookups(), s.pending.Len())
	}

	done := 0
	for i := 1; i <= n; i++ {
		s.callPeer(c.Nodes[i].Addr(), &proto.DHTFetch{Key: keys[i], Local: true}, requestTimeout, 2,
			func(r proto.SvcMessage, err error) {
				if err != nil || fetchVersion(r) != uint64(keys[i]) {
					t.Errorf("call %d: %v %#v", i, err, r)
				}
				done++
			})
	}
	if s.pending.Len() != n {
		t.Fatalf("%d calls in flight at once, want %d", s.pending.Len(), n)
	}
	c.Run(5 * time.Second)
	if done != n || s.pending.Len() != 0 {
		t.Fatalf("%d of %d calls answered, %d still pending", done, n, s.pending.Len())
	}
	for key, times := range answered {
		if times != 1 {
			t.Errorf("key %v answered %d times", key, times)
		}
	}
}

// TestKilledOriginNeverCallsBack: an operation whose origin was
// fail-stopped never calls back — not with ErrTimeout from a lookup's
// deadline, not with ErrLookupFailed from a backoff that looks the owner up
// again. The benchmark books such an operation as abandoned; a late
// failure callback would turn it into a failed one. The kill frees the
// calls' records, their timers cancelled, as the node's Stop ends their
// lookups: nothing would ever answer them. (Every timer a node sets also
// runs behind its liveness, the simulator's kill guard.)
func TestKilledOriginNeverCallsBack(t *testing.T) {
	c, svcs := dhtCluster(t, 64, 5)
	origin := c.Nodes[10]
	s := svcs[origin.Addr()]
	// Owners that never answer: every other node's extension counts the
	// requests it takes for each key and drops them, so the calls are still
	// in flight when the origin dies.
	served := map[idspace.ID]int{}
	for _, nd := range c.Nodes {
		if nd != origin {
			nd.SetExtension(func(_ uint64, msg proto.Message) {
				switch m := msg.(type) {
				case *proto.DHTFetch:
					served[m.Key]++
				case *proto.DHTStore:
					served[m.Key]++
				}
			})
		}
	}
	var fired []string

	// A Get whose owner lookup reaches its deadline unanswered: it backs
	// off before looking the owner up again.
	key := keyOwnedBy(t, c, c.Nodes[20])
	first := idspace.HashKey(key)
	s.Get(key, func([]byte, error) { fired = append(fired, "Get (backing off)") })
	for i := 0; s.Stats.Retries == 0; i++ {
		if i == 1200 {
			t.Fatal("the first Get's lookup never timed out")
		}
		c.Run(10 * time.Millisecond)
	}
	sent := served[first]

	get, put := keyOwnedBy(t, c, c.Nodes[30]), keyOwnedBy(t, c, c.Nodes[40])
	s.Get(get, func([]byte, error) { fired = append(fired, "Get") })
	s.Put(put, []byte("v"), func(error) { fired = append(fired, "Put") })
	for i := 0; served[idspace.HashKey(get)] == 0 || served[idspace.HashKey(put)] == 0; i++ {
		if i == 50 {
			t.Fatal("the Get's and the Put's requests did not reach their owners within the backoff")
		}
		c.Run(10 * time.Millisecond)
	}
	// The Get's and the Put's lookups wait out their deadlines; the first
	// Get is in its backoff, its request not yet sent again.
	if served[first] != sent || origin.PendingLookups() != 2 || s.pending.Len() != 3 {
		t.Fatalf("first Get re-sent: %v; %d lookups and %d calls in flight, want 2 and 3",
			served[first] != sent, origin.PendingLookups(), s.pending.Len())
	}
	c.Kill(origin)
	if s.pending.Len() != 0 {
		t.Fatalf("%d calls still pending on the killed origin", s.pending.Len())
	}
	c.Run(30 * time.Second)
	if len(fired) != 0 {
		t.Fatalf("callbacks fired after their origin was killed: %v", fired)
	}
}
