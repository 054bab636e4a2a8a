package dht

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/rtable"
	"treep/internal/simrt"
)

// sumStats adds the services' counters.
func sumStats(svcs map[uint64]*Service) (st Stats) {
	for _, s := range svcs {
		st.Handoffs += s.Stats.Handoffs
		st.Replicas += s.Stats.Replicas
		st.Dropped += s.Stats.Dropped
	}
	return st
}

// TestReplicaMaintenanceComesToRest: a store nobody writes to, on an
// overlay nobody joins or leaves, sends nothing. Every copy was placed when
// it was written; maintenance has no news and must keep silent (before
// placement marks each of the 800 replica copies went back to its owner
// every maintainInterval: about 12 000 handoffs in this window).
func TestReplicaMaintenanceComesToRest(t *testing.T) {
	const n, records = 200, 400
	replicates := 0
	counting := false
	trace := func(e netsim.TraceEvent) {
		if _, ok := e.Payload.(*proto.DHTReplicate); ok && counting {
			replicates++

		}
	}
	c := simrt.New(simrt.Options{N: n, Seed: 21, Bulk: true, NetOpts: []netsim.Option{netsim.WithTrace(trace)}})
	svcs := make(map[uint64]*Service, n)
	for _, nd := range c.Nodes {
		svcs[nd.Addr()] = Attach(nd)
	}
	c.StartAll()
	c.Run(10 * time.Second)

	stored := 0
	for i := 0; i < records; i++ {
		w := svcs[c.Nodes[(i*7)%n].Addr()]
		w.Put([]byte(fmt.Sprintf("rest-%d", i)), []byte("v"), func(err error) {
			if err == nil {
				stored++
			}
		})
		if i%20 == 19 {
			c.Run(500 * time.Millisecond)
		}
	}
	// Late placements (a replica whose nearest closer contact is not the
	// owner that pushed hands over once) finish within a few ticks.
	c.Run(60 * time.Second)
	if stored != records {
		t.Fatalf("%d of %d puts stored", stored, records)
	}
	copies := 0
	for _, s := range svcs {
		copies += s.Len()
	}
	if copies < records*replicationFactor*9/10 {
		t.Fatalf("%d copies of %d records: the store is not replicated", copies, records)
	}

	before := sumStats(svcs)
	counting = true
	c.Run(30 * time.Second)
	after := sumStats(svcs)
	if d := after.Handoffs - before.Handoffs; d != 0 {
		t.Errorf("%d handoffs in 30 s at rest", d)
	}
	if d := after.Replicas - before.Replicas; d != 0 {
		t.Errorf("%d replica pushes in 30 s at rest", d)
	}
	if replicates != 0 {
		t.Errorf("%d DHTReplicate datagrams in 30 s at rest", replicates)
	}
	// Silence did not cost a copy.
	held := 0
	for _, s := range svcs {
		held += s.Len()
	}
	if held != copies {
		t.Errorf("%d copies after the quiet window, %d before", held, copies)
	}
}

// ring is a hand-wired world for the placement rules: six nodes that are
// never started (no overlay traffic, no periodic maintenance), whose level-0
// tables hold exactly the direct contacts a test gives them and whose
// maintenance runs when the test says so.
type ring struct {
	t    *testing.T
	c    *simrt.Cluster
	n    []*core.Node // ascending ID
	s    []*Service
	sent []sentReplicate
}

// sentReplicate is one DHTReplicate as the network saw it leave.
type sentReplicate struct {
	from, to int // indices into ring.n
	key      idspace.ID
	version  uint64
	handoff  bool // carries a request id: wants an acknowledgement
}

func newRing(t *testing.T) *ring {
	t.Helper()
	r := &ring{t: t}
	index := map[netsim.Addr]int{}
	trace := func(e netsim.TraceEvent) {
		if m, ok := e.Payload.(*proto.DHTReplicate); ok {
			r.sent = append(r.sent, sentReplicate{index[e.From], index[e.To], m.Key, m.Version, m.ReqID != 0})
		}
	}
	r.c = simrt.New(simrt.Options{N: 6, Seed: 31, NetOpts: []netsim.Option{netsim.WithTrace(trace)}})
	r.n = append(r.n, r.c.Nodes...)
	sort.Slice(r.n, func(i, j int) bool { return r.n[i].ID() < r.n[j].ID() })
	for i, nd := range r.n {
		index[netsim.Addr(nd.Addr())] = i
		s := Attach(nd)
		s.maintTimer.Cancel()
		r.s = append(r.s, s)
	}
	return r
}

// knows makes the others direct-fresh level-0 contacts of node i as of now.
func (r *ring) knows(i int, others ...int) {
	tab := r.n[i].Table()
	for _, o := range others {
		tab.Level0.Upsert(r.n[o].Ref(), proto.FNeighbor, r.c.Now(), tab.NextVersion(), rtable.Direct)
	}
}

// tick runs one maintenance pass on node i, lets the exchange finish and
// returns the pushes and handoffs that left during it.
func (r *ring) tick(i int) []sentReplicate {
	r.sent = nil
	r.s[i].maintainTick()
	r.c.Run(time.Second)
	return r.sent
}

// near returns a key whose nearest node is i, a little above its ID.
func (r *ring) near(i int, off uint64) idspace.ID { return r.n[i].ID() + idspace.ID(off) }

func (r *ring) holds(i int, k idspace.ID, version uint64) bool {
	rec, ok := r.s[i].LocalHashed(k)
	return ok && rec.Version == version
}

// expect fails unless got is exactly the listed (from, to, handoff) sends.
func (r *ring) expect(what string, got []sentReplicate, want ...sentReplicate) {
	r.t.Helper()
	if len(got) != len(want) {
		r.t.Fatalf("%s: %d DHTReplicate sent, want %d: %+v", what, len(got), len(want), got)
	}
	for i, w := range want {
		if g := got[i]; g.from != w.from || g.to != w.to || g.handoff != w.handoff || g.version != w.version {
			r.t.Fatalf("%s: send %d is %+v, want %+v", what, i, g, w)
		}
	}
}

// TestOwnerPushIsNotEchoed: a replica that receives a version from its
// owner does not hand it back; one that receives it from a node further
// from the key hands it to the owner once.
func TestOwnerPushIsNotEchoed(t *testing.T) {
	r := newRing(t)
	const owner, replica, other = 2, 3, 5
	k := r.near(owner, 1)
	r.knows(owner, replica)
	r.knows(replica, owner, other)

	r.s[owner].merge(k, []byte("v1"), 1, 9)
	r.expect("owner's first tick", r.tick(owner), sentReplicate{owner, replica, k, 1, false})
	if !r.holds(replica, k, 1) {
		t.Fatal("the push did not arrive")
	}
	r.expect("replica after the owner's push", r.tick(replica))

	r.s[owner].merge(k, []byte("v2"), 2, 9)
	r.expect("owner's tick on a new version", r.tick(owner), sentReplicate{owner, replica, k, 2, false})
	r.expect("replica after the new version", r.tick(replica))
	r.expect("owner with nothing new", r.tick(owner))

	// The same version arriving from a node that is no closer says nothing
	// about the owner: it goes there, once.
	r.n[other].Send(r.n[replica].Addr(), r.s[other].replicaOf(k, &record{value: []byte("v3"), version: 3, origin: 9}))
	r.c.Run(time.Second)
	r.expect("replica holding a third party's version", r.tick(replica), sentReplicate{replica, owner, k, 3, true})
	if !r.holds(owner, k, 3) {
		t.Fatal("the owner did not get the third party's version")
	}
	r.expect("replica once the owner acknowledged", r.tick(replica))
	// The owner, in turn, owes it to its replicas — not back to the sender's
	// sender — and then rests.
	r.expect("owner holding a handed-off version", r.tick(owner), sentReplicate{owner, replica, k, 3, false})
	r.expect("owner at rest", r.tick(owner))
	r.expect("replica at rest", r.tick(replica))
}

// TestCloserJoinerGetsEachKeyOnce: a node that learns of a closer one hands
// every key over exactly once and keeps its copies while it is within
// replica distance.
func TestCloserJoinerGetsEachKeyOnce(t *testing.T) {
	r := newRing(t)
	const old, joiner = 2, 3
	keys := []idspace.ID{r.near(joiner, 1), r.near(joiner, 2), r.near(joiner, 3)}
	for _, k := range keys {
		r.s[old].merge(k, []byte("v"), 1, 9)
	}
	r.knows(old, 1)
	r.tick(old) // owner so far: pushes to its one neighbour

	r.knows(old, 1, joiner)
	got := r.tick(old)
	if len(got) != len(keys) {
		t.Fatalf("%d handoffs for %d keys: %+v", len(got), len(keys), got)
	}
	for i, k := range keys {
		if g := got[i]; g.key != k || g.to != joiner || !g.handoff {
			t.Fatalf("handoff %d is %+v, want key %v to the joiner", i, g, k)
		}
		if !r.holds(joiner, k, 1) || !r.holds(old, k, 1) {
			t.Fatalf("key %v: joiner holds %v, old owner holds %v", k, r.holds(joiner, k, 1), r.holds(old, k, 1))
		}
	}
	r.knows(old, 1, joiner)
	r.expect("old owner once the joiner acknowledged", r.tick(old))
	if r.s[old].Stats.Dropped != 0 {
		t.Fatal("a node inside the replica set dropped its copy")
	}
}

// TestOutOfSetCopyLeavesOnlyOnAck: a copy with replicationFactor closer
// nodes is offered to the nearest of them every tick and goes when, and
// only when, that node acknowledges it — not on the memory of an earlier
// acknowledgement (under churn all the closer nodes can die inside one
// freshness window: a holder that dropped on a mark alone lost a record in
// the 2000-node durability scenario).
func TestOutOfSetCopyLeavesOnlyOnAck(t *testing.T) {
	r := newRing(t)
	const far, nearest = 0, 3
	k, k2 := r.near(nearest, 1), r.near(nearest, 2)
	closer := []int{1, 2, nearest}
	r.knows(far, closer...)
	for _, key := range []idspace.ID{k, k2} {
		r.s[far].merge(key, []byte("v"), 1, 9)
		r.s[nearest].merge(key, []byte("v"), 1, 9)
		rec, _ := r.s[far].recs.Get(key)
		rec.placedSig, rec.placedVersion = placedAt(r.n[nearest].Addr()), 1 // acknowledged before
	}

	// The acknowledgement is lost: the copy stays and is offered again.
	r.c.Net.SetLinkFilter(func(from, to netsim.Addr) bool { return uint64(from) != r.n[nearest].Addr() })
	r.expect("first offer", r.tick(far), sentReplicate{far, nearest, k, 1, true}, sentReplicate{far, nearest, k2, 1, true})
	r.c.Run(2 * requestTimeout) // the call's one retry, then its failure
	if !r.holds(far, k, 1) || !r.holds(far, k2, 1) || r.s[far].Stats.Dropped != 0 {
		t.Fatal("a copy was dropped without an acknowledgement")
	}

	r.c.Net.SetLinkFilter(nil)
	r.knows(far, closer...)
	r.expect("second offer", r.tick(far), sentReplicate{far, nearest, k, 1, true}, sentReplicate{far, nearest, k2, 1, true})
	if r.s[far].Len() != 0 || len(r.s[far].recs.Keys()) != 0 || r.s[far].Stats.Dropped != 2 {
		t.Fatalf("after the acknowledgement %d records, %d keys, %d drops", r.s[far].Len(), len(r.s[far].recs.Keys()), r.s[far].Stats.Dropped)
	}
	r.expect("nothing left to offer", r.tick(far))
}

// TestOwnerDeathMakesTheReplicaOwner: a placement mark is not a ring
// signature, so the replica that finds itself nearest re-pushes.
func TestOwnerDeathMakesTheReplicaOwner(t *testing.T) {
	r := newRing(t)
	const owner, replica, next = 2, 3, 4
	k := r.near(owner, 1)
	r.knows(owner, replica)
	r.knows(replica, owner, next)
	r.s[owner].merge(k, []byte("v"), 1, 9)
	r.tick(owner)
	r.expect("replica while the owner lives", r.tick(replica))

	r.c.Kill(r.n[owner])
	r.c.Run(r.n[replica].Config().EntryTTL + time.Second) // the owner's entry lapses
	r.knows(replica, next)
	r.expect("replica become owner", r.tick(replica), sentReplicate{replica, next, k, 1, false})
	r.knows(replica, next)
	r.expect("new owner at rest", r.tick(replica))
}

// TestPlacementSurvivesALapsingContact: core pings only the two ring
// neighbours, so a holder two hops along is direct-fresh now and then. When
// the marked holder lapses the copy goes to the nearest one still fresh,
// once, and its return changes nothing: no trading between the two.
func TestPlacementSurvivesALapsingContact(t *testing.T) {
	r := newRing(t)
	const owner, mid, outer = 2, 3, 4 // outer's closer contacts: owner (two hops) and mid (adjacent)
	k := r.near(owner, 1)
	r.knows(owner, mid, outer)
	r.s[owner].merge(k, []byte("v"), 1, 9)
	r.s[owner].pushReplicas(k, mustRec(t, r.s[owner], k))
	r.c.Run(time.Second)
	r.knows(outer, owner, mid)
	r.expect("outer replica, owner fresh", r.tick(outer))

	r.c.Run(r.n[outer].Config().EntryTTL + time.Second)
	r.knows(outer, mid) // the owner has not been heard from; mid has
	r.expect("outer replica, owner lapsed", r.tick(outer), sentReplicate{outer, mid, k, 1, true})
	r.knows(outer, owner, mid)
	r.expect("outer replica, owner back", r.tick(outer))
	r.c.Run(r.n[outer].Config().EntryTTL + time.Second)
	r.knows(outer, mid)
	r.expect("outer replica, owner lapsed again", r.tick(outer))
}

func mustRec(t *testing.T, s *Service, k idspace.ID) *record {
	t.Helper()
	rec, ok := s.recs.Get(k)
	if !ok {
		t.Fatalf("no record for %v", k)
	}
	return rec
}

// TestPlacementMarksAreTheSameInEveryProcess pins ringSig and placedAt of
// fixed addresses to constants — a mark seeded per process would make two
// runs of one seed part ways on a collision, out of any digest's sight — and
// keeps the two domains apart over every address a test overlay hands out.
func TestPlacementMarksAreTheSameInEveryProcess(t *testing.T) {
	if got, want := placedAt(7), uint64(0xd0b1b125e467daaf); got != want {
		t.Errorf("placedAt(7) = %#x, want %#x", got, want)
	}
	if got, want := placedAt(0), uint64(0xd6967248fbe68cc3); got != want {
		t.Errorf("placedAt(0) = %#x, want %#x", got, want)
	}
	r := newRing(t)
	left, right := r.n[1].Addr(), r.n[3].Addr()
	if sig, want := r.s[2].ringSig(), uint64(0xa706dd2f4d197e6f); sig != mix(mix(0, 0), 0) || sig != want {
		t.Errorf("ringSig with no neighbour = %#x, want %#x", sig, want)
	}
	r.knows(2, 1, 3)
	if sig, want := r.s[2].ringSig(), uint64(0x81cfbd65ec1ce8f4); left != 2 || right != 4 || sig != mix(mix(0, left), right) || sig != want {
		t.Errorf("ringSig between addresses %d and %d = %#x, want %#x", left, right, sig, want)
	}
	if r.s[2].ringSig() == mix(mix(0, right), left) {
		t.Error("ringSig does not tell left from right")
	}

	const addrs = 300 // neighbours 0 (none) to addrs-1, holders likewise
	sigs := make(map[uint64]bool, addrs*addrs)
	for l := uint64(0); l < addrs; l++ {
		for rt := uint64(0); rt < addrs; rt++ {
			sigs[mix(mix(0, l), rt)] = true
		}
	}
	if len(sigs) != addrs*addrs {
		t.Errorf("%d neighbour pairs share %d signatures", addrs*addrs, len(sigs))
	}
	for h := uint64(0); h < addrs; h++ {
		if sigs[placedAt(h)] {
			t.Errorf("placedAt(%d) is also a ring signature", h)
		}
	}
}
