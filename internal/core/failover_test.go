package core

import (
	"testing"
	"time"
	"unsafe"

	"treep/internal/proto"
	"treep/internal/rtable"
)

// hearsay files refs as level-0 entries this node has never heard from
// directly — what a neighbour's advertisement leaves behind, and what a
// forward to it must be held for.
func hearsay(n *Node, refs ...proto.NodeRef) {
	for _, r := range refs {
		n.table.Level0.Upsert(r, proto.FNeighbor|proto.FIndirect, n.env.Now(), n.table.NextVersion(), rtable.Hearsay)
	}
}

// foreignRequest is a request from another origin passing through.
func foreignRequest(reqID uint64) *proto.LookupRequest {
	return &proto.LookupRequest{Origin: mkRef(50, 9, 0), Target: 500, ReqID: reqID, TTL: 100, Hops: 2, Algo: proto.AlgoG}
}

// heldCount and suspectCount read a node's failover record, one handed
// back to the pool reading as empty.
func heldCount(n *Node) int {
	if n.fo == nil {
		return 0
	}
	return int(n.fo.held)
}

func suspectCount(n *Node) int {
	if n.fo == nil {
		return 0
	}
	return int(n.fo.suspectN)
}

func hopAck(from proto.NodeRef, reqID uint64) *proto.LookupReply {
	return &proto.LookupReply{From: from, ReqID: reqID, Status: proto.LookupHopAck}
}

func TestHoldReleasedByHopAck(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	hearsay(n, nbr)
	n.HandleMessage(9, foreignRequest(7))
	fwds := msgsOfType[*proto.LookupRequest](env.drain())
	if len(fwds) != 1 || !fwds[0].AckWanted || fwds[0].Hops != 3 {
		t.Fatalf("forward to a never-heard-from peer must ask for an ack: %+v", fwds)
	}
	if heldCount(n) != 1 || n.Stats.LookupAcksSolicited != 1 {
		t.Fatalf("held=%d solicited=%d", heldCount(n), n.Stats.LookupAcksSolicited)
	}
	n.HandleMessage(4, hopAck(nbr, 7))
	if heldCount(n) != 0 {
		t.Fatal("hop-ack did not release the hold")
	}
	env.advance(time.Minute)
	if got := msgsOfType[*proto.LookupRequest](env.drain()); len(got) != 0 || n.Stats.LookupFailovers != 0 {
		t.Fatalf("released hold failed over anyway: %+v", got)
	}
	if n.Stats.LookupFalseFailovers != 0 {
		t.Fatal("a release is not a false failover")
	}
}

func TestAckWantedIsAnsweredAndNotPassedOn(t *testing.T) {
	n, env := testNode(100, 1)
	n.InstallLevel0(mkRef(400, 4, 0)) // heard from just now: no hold of our own
	env.drain()
	req := foreignRequest(7)
	req.AckWanted = true
	n.HandleMessage(8, req)
	sent := env.drain()
	acks := msgsOfType[*proto.LookupReply](sent)
	if len(acks) != 1 || acks[0].Status != proto.LookupHopAck || acks[0].ReqID != 7 || acks[0].From.Addr != 1 {
		t.Fatalf("hop-ack: %+v", acks)
	}
	if sent[0].to != 8 {
		t.Fatalf("hop-ack went to %d, want the previous hop 8", sent[0].to)
	}
	fwds := msgsOfType[*proto.LookupRequest](sent)
	if len(fwds) != 1 || fwds[0].AckWanted {
		t.Fatalf("the previous hop's ack request leaked into the forward: %+v", fwds)
	}
	if heldCount(n) != 0 {
		t.Fatal("forward to a fresh peer was held")
	}
}

// TestHeldInTheOlderHalfOfTheRound: a peer heard from within half a
// keep-alive round (plus the round-trip bound) takes forwards un-held; one
// heard from earlier in the round is asked for an ack, though a live
// active peer would still ping before the round ends.
func TestHeldInTheOlderHalfOfTheRound(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	n.InstallLevel0(nbr)
	env.drain()
	fresh := keepAlive/2 + n.rttBound()
	env.advance(fresh - time.Millisecond)
	env.drain()
	n.HandleMessage(9, foreignRequest(7))
	if fwds := msgsOfType[*proto.LookupRequest](env.drain()); len(fwds) != 1 || fwds[0].AckWanted {
		t.Fatalf("forward to a peer heard from %v ago must go un-held: %+v", fresh-time.Millisecond, fwds)
	}
	env.advance(2 * time.Millisecond)
	env.drain()
	n.HandleMessage(9, foreignRequest(8))
	if fwds := msgsOfType[*proto.LookupRequest](env.drain()); len(fwds) != 1 || !fwds[0].AckWanted || heldCount(n) != 1 {
		t.Fatalf("forward to a peer heard from %v ago must be held: %+v (held %d)", fresh+time.Millisecond, fwds, heldCount(n))
	}
}

// TestReissueHoldsItsFirstHop: the origin's re-issue is held even to a
// peer it heard from a moment ago — the walk before it went silent, and a
// dead first hop the origin still counts fresh would take this one too.
func TestReissueHoldsItsFirstHop(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	n.InstallLevel0(nbr)
	env.drain()
	n.Lookup(500, proto.AlgoG, func(LookupResult) {})
	if fwds := msgsOfType[*proto.LookupRequest](env.drain()); len(fwds) != 1 || fwds[0].AckWanted {
		t.Fatalf("first walk to a fresh peer must go un-held: %+v", fwds)
	}
	rto := n.lookupRTO()
	env.advance(rto - time.Millisecond)
	n.HandleMessage(4, hopAck(nbr, 99)) // heard from just before the re-issue
	env.drain()
	env.advance(time.Millisecond)
	fwds := msgsOfType[*proto.LookupRequest](env.drain())
	if n.Stats.LookupReissues != 1 || len(fwds) != 1 || !fwds[0].AckWanted || heldCount(n) != 1 {
		t.Fatalf("re-issue: %d re-issues, forwards %+v, held %d", n.Stats.LookupReissues, fwds, heldCount(n))
	}
}

// TestHoldSilenceExcludesAndReroutes: one round-trip bound of silence
// re-routes the held request (the hedge), two exclude the peer (the
// verdict).
func TestHoldSilenceExcludesAndReroutes(t *testing.T) {
	n, env := testNode(100, 1)
	near, far := mkRef(400, 4, 0), mkRef(300, 3, 0)
	hearsay(n, near, far)
	n.HandleMessage(9, foreignRequest(7))
	if fwds := env.sentTo(4); len(fwds) != 1 {
		t.Fatalf("first choice must be the nearer peer: %+v", env.sent)
	}
	env.drain()

	env.advance(n.rttBound() - time.Millisecond)
	if len(env.drain()) != 0 {
		t.Fatal("failed over before the deadline")
	}
	env.advance(time.Millisecond)
	fwds := msgsOfType[*proto.LookupRequest](env.sent)
	if len(fwds) != 1 || len(env.sentTo(3)) != 1 {
		t.Fatalf("silent peer: want one re-route to the other peer, got %+v", env.sent)
	}
	// The re-route starts from the request as received, not from the copy
	// that was lost.
	if fwds[0].Hops != 3 || fwds[0].TTL != 99 || fwds[0].ReqID != 7 || !fwds[0].AckWanted {
		t.Fatalf("re-routed request %+v", fwds[0])
	}
	env.drain()
	env.advance(n.rttBound())
	if n.Stats.LookupFailovers != 1 || heldCount(n) != 1 {
		t.Fatalf("failovers=%d held=%d", n.Stats.LookupFailovers, heldCount(n))
	}
	env.drain()

	// Excluded from every decision of this node, while the table keeps it.
	n.HandleMessage(9, foreignRequest(8))
	if len(env.sentTo(4)) != 0 || len(env.sentTo(3)) != 1 {
		t.Fatalf("excluded peer still chosen: %+v", env.sent)
	}
	if n.table.Level0.Get(4) == nil {
		t.Fatal("exclusion must leave the table alone")
	}
	env.drain()

	// Heard from again: the exclusion ends, and is counted for what it was.
	n.HandleMessage(4, &proto.Hello{From: near})
	if n.Stats.LookupFalseFailovers != 1 {
		t.Fatalf("false failovers %d", n.Stats.LookupFalseFailovers)
	}
	env.drain()
	n.HandleMessage(9, foreignRequest(9))
	if fwds := msgsOfType[*proto.LookupRequest](env.drain()); len(fwds) != 1 || fwds[0].AckWanted {
		t.Fatalf("peer heard from a moment ago needs no ack: %+v", fwds)
	}
}

// TestFirstSilenceHedgesThenExcludes: a forward whose request names no
// silent peer is routed around its peer after one round-trip bound; the
// peer is in doubt, skipped by every decision of this node but not
// excluded, until the verdict one bound later.
func TestFirstSilenceHedgesThenExcludes(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0), mkRef(300, 3, 0))
	n.HandleMessage(9, foreignRequest(7))
	env.drain()
	bound := n.rttBound()
	env.advance(bound)
	fwds := msgsOfType[*proto.LookupRequest](env.drain())
	if len(fwds) != 1 || fwds[0].Silent != 4 || n.Stats.LookupFailovers != 0 || suspectCount(n) != 0 {
		t.Fatalf("hedge: forwards %+v, failovers %d, suspects %d", fwds, n.Stats.LookupFailovers, suspectCount(n))
	}
	n.HandleMessage(9, foreignRequest(8))
	if len(env.sentTo(4)) != 0 || len(env.sentTo(3)) != 1 {
		t.Fatalf("a peer in doubt was chosen: %+v", env.sent)
	}
	env.drain()
	env.advance(bound - time.Millisecond)
	if n.Stats.LookupFailovers != 0 || suspectCount(n) != 0 {
		t.Fatal("excluded before the verdict")
	}
	env.advance(time.Millisecond)
	if n.Stats.LookupFailovers != 1 || suspectCount(n) != 1 {
		t.Fatalf("verdict: failovers %d, suspects %d", n.Stats.LookupFailovers, suspectCount(n))
	}
	if got := msgsOfType[*proto.LookupRequest](env.drain()); len(got) != 0 {
		t.Fatalf("the hedged request was routed again at the verdict: %+v", got)
	}
}

// TestHedgeThatEndsTheWalkHolds: with no other peer to forward to, the
// hedge leaves the request held; only the verdict answers it here.
func TestHedgeThatEndsTheWalkHolds(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0))
	n.HandleMessage(9, foreignRequest(7))
	env.drain()
	env.advance(n.rttBound())
	if got := env.drain(); len(got) != 0 || heldCount(n) != 1 {
		t.Fatalf("hedge with nowhere else to go: sent %+v, held %d", got, heldCount(n))
	}
	env.advance(n.rttBound())
	if reps := msgsOfType[*proto.LookupReply](env.drain()); len(reps) != 1 || reps[0].Best.Addr != 1 {
		t.Fatalf("verdict: replies %+v", reps)
	}
}

// TestVerdictCarryingRequestSkipsTheHedge: a request that already names a
// silent peer is held for two bounds, so a slow peer cannot overwrite the
// verdict it carries.
func TestVerdictCarryingRequestSkipsTheHedge(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0), mkRef(300, 3, 0))
	req := foreignRequest(7)
	req.Silent = 8
	n.HandleMessage(9, req)
	if fwds := msgsOfType[*proto.LookupRequest](env.drain()); len(fwds) != 1 || fwds[0].Silent != 8 || len(env.sentTo(4)) != 0 {
		t.Fatalf("first forward: %+v", fwds)
	}
	env.advance(2*n.rttBound() - time.Millisecond)
	if got := env.drain(); len(got) != 0 {
		t.Fatalf("a verdict-carrying request was hedged: %+v", got)
	}
	env.advance(time.Millisecond)
	fwds := msgsOfType[*proto.LookupRequest](env.sent)
	if len(fwds) != 1 || len(env.sentTo(3)) != 1 || fwds[0].Silent != 4 || n.Stats.LookupFailovers != 1 {
		t.Fatalf("verdict: %+v (failovers %d)", env.sent, n.Stats.LookupFailovers)
	}
}

// TestHeardFromAfterTheHedge: a peer that speaks between the hedge and the
// verdict was slow, not gone. It is neither excluded nor a false failover,
// the early hedge is counted, and its doubt ends.
func TestHeardFromAfterTheHedge(t *testing.T) {
	n, env := testNode(100, 1)
	near := mkRef(400, 4, 0)
	hearsay(n, near, mkRef(300, 3, 0))
	n.HandleMessage(9, foreignRequest(7))
	bound := n.rttBound()
	env.advance(bound + bound/2)
	env.drain()
	n.HandleMessage(4, hopAck(near, 7))
	if n.Stats.LookupHedgesEarly != 1 || n.Stats.LookupFalseFailovers != 0 {
		t.Fatalf("early hedges %d, false failovers %d", n.Stats.LookupHedgesEarly, n.Stats.LookupFalseFailovers)
	}
	env.advance(bound)
	if n.Stats.LookupFailovers != 0 || suspectCount(n) != 0 {
		t.Fatalf("a peer heard from before the verdict was excluded (failovers %d)", n.Stats.LookupFailovers)
	}
	env.drain()
	n.HandleMessage(9, foreignRequest(8))
	if fwds := env.sentTo(4); len(fwds) != 1 {
		t.Fatalf("the peer heard from is still in doubt: %+v", env.sent)
	}
}

// TestEarlierHoldRearmsTheTimer: a first-silence hold made while a
// verdict-carrying hold's longer deadline is armed is hedged on its own
// deadline, not when the armed timer fires.
func TestEarlierHoldRearmsTheTimer(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0), mkRef(300, 3, 0))
	bound := n.rttBound()
	long := foreignRequest(7)
	long.Silent = 8
	n.HandleMessage(9, long)
	env.advance(bound / 2)
	n.HandleMessage(9, foreignRequest(9))
	env.drain()
	env.advance(bound - time.Millisecond)
	if got := env.drain(); len(got) != 0 {
		t.Fatalf("early: %+v", got)
	}
	env.advance(time.Millisecond)
	fwds := msgsOfType[*proto.LookupRequest](env.drain())
	if len(fwds) != 1 || fwds[0].ReqID != 9 || fwds[0].Silent != 4 {
		t.Fatalf("the second hold was not hedged on its own deadline: %+v", fwds)
	}
	env.advance(bound / 2)
	fwds = msgsOfType[*proto.LookupRequest](env.drain())
	if len(fwds) != 1 || fwds[0].ReqID != 7 || n.Stats.LookupFailovers != 1 {
		t.Fatalf("the first hold's verdict: %+v (failovers %d)", fwds, n.Stats.LookupFailovers)
	}
}

func TestExclusionExpiresWithTheEntry(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0))
	n.HandleMessage(9, foreignRequest(7))
	env.advance(2 * n.rttBound())
	if suspectCount(n) != 1 {
		t.Fatalf("suspects %d", suspectCount(n))
	}
	// With its only candidate excluded the node is its own owner estimate.
	if reps := msgsOfType[*proto.LookupReply](env.drain()); len(reps) != 1 || reps[0].Best.Addr != 1 {
		t.Fatalf("replies %+v", reps)
	}
	env.advance(EntryTTL + sweepInterval)
	if suspectCount(n) != 0 {
		t.Fatal("exclusion outlived the entry TTL")
	}
}

func TestHoldReleasedByUnrelatedDatagram(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	hearsay(n, nbr)
	n.HandleMessage(9, foreignRequest(7))
	n.HandleMessage(4, &proto.Ping{From: nbr, Seq: 1})
	if heldCount(n) != 0 {
		t.Fatal("any datagram from the peer is the sign of life")
	}
	env.drain()
	env.advance(time.Minute)
	if n.Stats.LookupFailovers != 0 {
		t.Fatal("failover after release")
	}
}

func TestHeldTableOverflow(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0))
	for i := 0; i < heldSlots+2; i++ {
		n.HandleMessage(9, foreignRequest(uint64(i+1)))
	}
	fwds := msgsOfType[*proto.LookupRequest](env.drain())
	if len(fwds) != heldSlots+2 {
		t.Fatalf("every request must still be forwarded: %d", len(fwds))
	}
	for i, f := range fwds {
		if want := i < heldSlots; f.AckWanted != want {
			t.Fatalf("forward %d: AckWanted=%v", i, f.AckWanted)
		}
	}
	if n.Stats.LookupHeldOverflows != 2 || heldCount(n) != heldSlots {
		t.Fatalf("overflows=%d held=%d", n.Stats.LookupHeldOverflows, heldCount(n))
	}
	// One sign of life releases every slot waiting on that peer.
	n.HandleMessage(4, hopAck(mkRef(400, 4, 0), 1))
	if heldCount(n) != 0 {
		t.Fatalf("held=%d after the peer spoke", heldCount(n))
	}
}

func TestHeldSlotOwnsItsAlternates(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0), mkRef(300, 3, 0))
	alts := []proto.NodeRef{mkRef(700, 7, 0)}
	req := foreignRequest(7)
	req.Algo, req.Alternates = proto.AlgoNGSA, alts
	n.HandleMessage(9, req)
	alts[0] = mkRef(800, 8, 0) // the sender's buffer moves on
	env.drain()
	env.advance(n.rttBound())
	fwds := msgsOfType[*proto.LookupRequest](env.drain())
	if len(fwds) != 1 {
		t.Fatalf("re-route: %+v", fwds)
	}
	found := false
	for _, a := range fwds[0].Alternates {
		if a.Addr == 8 {
			t.Fatal("held request aliased the received alternates")
		}
		found = found || a.Addr == 7
	}
	if !found {
		t.Fatalf("alternates lost in the hold: %+v", fwds[0].Alternates)
	}
}

// keepFresh has peer speak every second, so forwards to it are never held
// and the origin's own timer is all that is left to observe.
func keepFresh(n *Node, env *fakeEnv, peer proto.NodeRef, d time.Duration, each func()) {
	for end := env.now + d; env.now < end; {
		n.HandleMessage(peer.Addr, &proto.Hello{From: peer})
		env.advance(time.Second)
		if each != nil {
			each()
		}
	}
}

func TestReissueSharesReqIDAndAbsorbsDuplicates(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	n.InstallLevel0(nbr)
	env.drain()
	calls := 0
	var got LookupResult
	id := n.Lookup(500, proto.AlgoG, func(r LookupResult) { calls++; got = r })
	rto := n.lookupRTO()
	if rto >= LookupDeadline/2 {
		t.Fatalf("rto %v leaves no room to re-issue before the %v timeout", rto, LookupDeadline)
	}
	keepFresh(n, env, nbr, rto+time.Second, nil)
	reqs := msgsOfType[*proto.LookupRequest](env.drain())
	if len(reqs) != 2 || n.Stats.LookupReissues != 1 {
		t.Fatalf("want the request and one re-issue, got %d (reissues=%d)", len(reqs), n.Stats.LookupReissues)
	}
	for _, r := range reqs {
		if r.ReqID != id || r.Hops != 1 || r.TTL != MaxTTL-1 || r.Origin.Addr != 1 {
			t.Fatalf("re-issue must be the request again, from the origin: %+v", r)
		}
	}
	if calls != 0 || n.PendingLookups() != 1 {
		t.Fatal("a re-issue is not an outcome")
	}
	// Both copies are answered: the first completes, the second is absorbed.
	n.HandleMessage(4, &proto.LookupReply{From: nbr, ReqID: id, Status: proto.LookupFound, Best: mkRef(500, 5, 0), Hops: 4})
	n.HandleMessage(4, &proto.LookupReply{From: nbr, ReqID: id, Status: proto.LookupNotFound, Hops: 9})
	if calls != 1 || got.Status != LookupFound || got.Hops != 4 {
		t.Fatalf("calls=%d result %+v", calls, got)
	}
	env.advance(time.Minute)
	if calls != 1 || len(msgsOfType[*proto.LookupRequest](env.drain())) != 0 {
		t.Fatal("completed lookup kept its timer")
	}
}

func TestLookupTimeout(t *testing.T) {
	// The peer is alive and says so; the lookup is lost beyond it. Re-issues
	// go out on a doubling RTO and only the hard timeout fails the lookup,
	// at LookupDeadline to the tick.
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	n.InstallLevel0(nbr)
	var got LookupResult
	var firedAt time.Duration
	n.Lookup(500, proto.AlgoG, func(r LookupResult) { got, firedAt = r, env.now })
	start := env.now
	keepFresh(n, env, nbr, LookupDeadline-time.Second, func() {
		if firedAt != 0 {
			t.Fatalf("callback at %v, before the hard timeout", firedAt-start)
		}
	})
	env.advance(time.Second)
	if got.Status != LookupTimeout || firedAt-start != LookupDeadline || got.Latency != LookupDeadline {
		t.Fatalf("result %+v at %v", got, firedAt-start)
	}
	if n.PendingLookups() != 0 {
		t.Fatal("pending leak after timeout")
	}
	if n.Stats.LookupReissues != 2 {
		// rto, then 2·rto, then the clamp to the hard timeout.
		t.Fatalf("reissues %d", n.Stats.LookupReissues)
	}
}

func TestOriginHoldsItsFirstHop(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0), mkRef(300, 3, 0))
	calls := 0
	id := n.Lookup(500, proto.AlgoG, func(LookupResult) { calls++ })
	first := msgsOfType[*proto.LookupRequest](env.drain())
	if len(first) != 1 || !first[0].AckWanted {
		t.Fatalf("origin is hop 0: %+v", first)
	}
	env.advance(2 * n.rttBound())
	again := msgsOfType[*proto.LookupRequest](env.drain())
	if len(again) != 1 || again[0].ReqID != id || again[0].Hops != 1 || len(env.sentTo(4)) != 0 {
		t.Fatalf("origin failover: %+v", again)
	}
	if calls != 0 || n.Stats.LookupFailovers != 1 || n.Stats.LookupReissues != 0 {
		t.Fatalf("calls=%d failovers=%d reissues=%d", calls, n.Stats.LookupFailovers, n.Stats.LookupReissues)
	}
}

// TestFailoverVerdictTravels: A holds its forward to P, hears nothing and
// re-routes to Q, naming P in the request. Q's table also lists P as the
// peer nearest the target; the verdict sends Q elsewhere and is passed on,
// yet Q keeps P in its table and out of its suspects (to Q it is hearsay).
func TestFailoverVerdictTravels(t *testing.T) {
	a, envA := testNode(100, 1)
	p, q, r := mkRef(400, 4, 0), mkRef(300, 3, 0), mkRef(350, 5, 0)
	hearsay(a, p, q)
	a.HandleMessage(9, foreignRequest(7))
	if fwds := msgsOfType[*proto.LookupRequest](envA.drain()); len(fwds) != 1 || fwds[0].Silent != 0 {
		t.Fatalf("a walk that found no one silent names no one: %+v", fwds)
	}
	envA.advance(2 * a.rttBound())
	fwds := msgsOfType[*proto.LookupRequest](envA.sent)
	if len(fwds) != 1 || len(envA.sentTo(q.Addr)) != 1 || fwds[0].Silent != p.Addr {
		t.Fatalf("failover to Q must name P: %+v", envA.sent)
	}

	for _, tc := range []struct {
		silent uint64
		want   uint64
	}{{0, p.Addr}, {p.Addr, r.Addr}} {
		n, env := testNode(q.ID, q.Addr)
		hearsay(n, p, r)
		req := *fwds[0]
		req.Silent = tc.silent
		n.HandleMessage(a.Addr(), &req)
		next := msgsOfType[*proto.LookupRequest](env.sent)
		if len(next) != 1 || len(env.sentTo(tc.want)) != 1 || next[0].Silent != tc.silent {
			t.Fatalf("Silent=%d: want one forward to %d carrying it, got %+v", tc.silent, tc.want, env.sent)
		}
		if suspectCount(n) != 0 || n.table.Level0.Get(p.Addr) == nil {
			t.Fatalf("Silent=%d: %d suspects, P in table %v: hearsay minted state", tc.silent, suspectCount(n), n.table.Level0.Get(p.Addr) != nil)
		}
	}
}

// TestReissueCarriesNoVerdict: the origin's own failover names the peer it
// found silent, and its re-issue, a new walk, names no one.
func TestReissueCarriesNoVerdict(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0), mkRef(300, 3, 0))
	n.Lookup(500, proto.AlgoG, func(LookupResult) {})
	env.drain()
	env.advance(2 * n.rttBound())
	if again := msgsOfType[*proto.LookupRequest](env.drain()); len(again) != 1 || again[0].Silent != 4 {
		t.Fatalf("origin failover must name the silent peer: %+v", again)
	}
	// Q is alive and says so; the walk is lost beyond it.
	q := mkRef(300, 3, 0)
	for i := 0; n.Stats.LookupReissues == 0 && i < 1000; i++ {
		n.HandleMessage(q.Addr, &proto.Hello{From: q})
		env.advance(10 * time.Millisecond)
	}
	re := msgsOfType[*proto.LookupRequest](env.drain())
	if len(re) != 1 || re[0].Silent != 0 || re[0].Hops != 1 {
		t.Fatalf("re-issue: %+v", re)
	}
}

func TestHopAckNeverCompletesOwnLookup(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	hearsay(n, nbr)
	calls := 0
	id := n.Lookup(500, proto.AlgoG, func(LookupResult) { calls++ })
	// A foreign request drawn from another origin's counter carries the
	// same id through this node, to the same peer.
	n.HandleMessage(9, foreignRequest(id))
	if heldCount(n) != 2 {
		t.Fatalf("held=%d", heldCount(n))
	}
	n.HandleMessage(4, hopAck(nbr, id))
	if calls != 0 || n.PendingLookups() != 1 {
		t.Fatal("hop-ack completed the forwarder's own lookup")
	}
	if heldCount(n) != 0 {
		t.Fatal("hop-ack did not release")
	}
	env.drain()
}

func TestStopFreesFailover(t *testing.T) {
	n, env := testNode(100, 1)
	hearsay(n, mkRef(400, 4, 0))
	n.HandleMessage(9, foreignRequest(7))
	env.advance(2 * n.rttBound()) // one exclusion on the books
	n.HandleMessage(9, foreignRequest(8))
	n.Stop()
	if n.fo != nil {
		t.Fatal("Stop must free the hold table and the exclusions")
	}
	env.drain()
	env.advance(time.Minute)
	if len(env.drain()) != 0 {
		t.Fatal("deadline timer survived Stop")
	}
}

// TestFailoverRecordLifecycle: a node holds a failover record only while
// something is held, excluded or armed, and idle records pass between nodes
// through foPool. It catches three mutants: a record returned while its
// timer is armed (the early release finds it gone before the firing), fire
// bound to the first node that made the record (node B's deadline panics on
// node A, which holds none, instead of re-routing B's request), and a
// record returned with a suspect left (B's exclusion is gone after the
// firing).
func TestFailoverRecordLifecycle(t *testing.T) {
	// holdThenAck holds one forward to nbr, the only candidate toward the
	// target, and releases it with nbr's hop-ack; the timer stays armed.
	holdThenAck := func(n *Node, nbr proto.NodeRef, reqID uint64) *failover {
		t.Helper()
		hearsay(n, nbr)
		n.HandleMessage(9, foreignRequest(reqID))
		rec := n.fo
		if rec == nil || heldCount(n) != 1 {
			t.Fatalf("forward to a never-heard-from peer was not held (held=%d)", heldCount(n))
		}
		n.HandleMessage(nbr.Addr, hopAck(nbr, reqID))
		if heldCount(n) != 0 {
			t.Fatal("hop-ack did not release the hold")
		}
		return rec
	}

	t.Run("kept while armed", func(t *testing.T) {
		n, env := testNode(100, 1)
		rec := holdThenAck(n, mkRef(400, 4, 0), 7)
		if n.fo != rec || !rec.armed {
			t.Fatal("an early release handed back a record whose timer is still armed")
		}
		env.advance(2 * n.rttBound())
		if n.fo != nil {
			t.Fatal("the firing did not hand the idle record back")
		}
	})

	t.Run("returned when idle, then reused", func(t *testing.T) {
		n, env := testNode(100, 1)
		rec := holdThenAck(n, mkRef(400, 4, 0), 7)
		env.advance(2 * n.rttBound()) // the firing finds the table empty
		if n.fo != nil || n.MemBytes().Hold != 0 {
			t.Fatalf("an idle record stayed with its node (Hold=%d)", n.MemBytes().Hold)
		}
		if n.Stats.LookupFailovers != 0 {
			t.Fatal("a released hold failed over")
		}
		env.drain()
		hearsay(n, mkRef(450, 5, 0)) // nearer the target, never heard from
		n.HandleMessage(9, foreignRequest(8))
		if heldCount(n) != 1 || n.MemBytes().Hold == 0 {
			t.Fatalf("second forward not held (held=%d)", heldCount(n))
		}
		if !raceEnabled && n.fo != rec {
			t.Fatal("the next hold made a new record instead of taking the idle one back")
		}
	})

	t.Run("recycled record fires for its new node", func(t *testing.T) {
		a, envA := testNode(100, 1)
		rec := holdThenAck(a, mkRef(400, 4, 0), 7)
		envA.advance(2 * a.rttBound())
		b, envB := testNode(200, 2)
		hearsay(b, mkRef(600, 6, 0))
		b.HandleMessage(9, foreignRequest(8))
		if heldCount(b) != 1 {
			t.Fatalf("B's forward not held (held=%d)", heldCount(b))
		}
		if !raceEnabled && b.fo != rec {
			t.Fatal("B's hold did not take A's idle record")
		}
		envB.drain()
		envB.advance(2 * b.rttBound())
		if b.Stats.LookupFailovers != 1 || a.Stats.LookupFailovers != 0 {
			t.Fatalf("failovers A=%d B=%d, want 0 and 1", a.Stats.LookupFailovers, b.Stats.LookupFailovers)
		}
		// With its only candidate excluded B is its own owner estimate.
		if reps := msgsOfType[*proto.LookupReply](envB.drain()); len(reps) != 1 || reps[0].Best.Addr != 2 {
			t.Fatalf("B did not re-route its request: replies %+v", reps)
		}
		if suspectCount(b) != 1 || b.MemBytes().Hold == 0 {
			t.Fatalf("B's record went back with its exclusion (suspects=%d)", suspectCount(b))
		}
		if a.fo != nil {
			t.Fatal("A holds a record again")
		}
	})
}

func TestRTTEstimateFromKeepalive(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	n.InstallLevel0(nbr)
	prior := n.srtt
	if prior != keepAlive/16 || n.rttBound() != 3*prior {
		t.Fatalf("prior %v bound %v", prior, n.rttBound())
	}
	// A pong that answers no ping of a keep-alive round is not a sample.
	n.HandleMessage(4, &proto.Pong{From: nbr, Seq: 0})
	n.HandleMessage(4, &proto.Pong{From: nbr, Seq: 12345})
	if n.srtt != prior {
		t.Fatal("stray pong moved the estimate")
	}
	env.advance(40 * time.Millisecond)
	for round := 0; round < 40; round++ {
		env.advance(keepAlive - 40*time.Millisecond) // to the tick's instant
		pings := msgsOfType[*proto.Ping](env.drain())
		if len(pings) == 0 {
			t.Fatal("no keep-alive ping")
		}
		env.advance(40 * time.Millisecond)
		n.HandleMessage(4, &proto.Pong{From: nbr, Seq: pings[len(pings)-1].Seq})
	}
	if d := n.srtt - 40*time.Millisecond; d < -time.Millisecond || d > time.Millisecond {
		t.Fatalf("srtt %v after forty 40 ms samples", n.srtt)
	}
	if n.rttBound() > 50*time.Millisecond || n.rttBound() < keepAlive/64 {
		t.Fatalf("bound %v", n.rttBound())
	}
	if got, want := n.lookupRTO(), time.Duration(n.cfg.Routing.HopBudget())*n.srtt*3/2; got != want {
		t.Fatalf("rto %v want %v", got, want)
	}
}

// TestNodeFitsItsSizeClass guards the benchmark's heap_bytes_per_node: a
// Node is allocated with an 8-byte malloc header, in the 1280-byte class
// (nodeClass) up to 1272 bytes, and one more word costs every peer 128
// bytes (the 1408-byte class, where it sat until routing.Params lost its
// last unset field, DESIGN.md §16). It is 1168 bytes since the timers
// became constants: 24 bytes above 1144, the most the 1152-byte class
// holds. Growing Node is allowed; doing it without noticing is not.
func TestNodeFitsItsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Node{}); sz > 1168 {
		t.Fatalf("core.Node is %d bytes, grown past 1168 (see comment)", sz)
	}
	if sz := unsafe.Sizeof(failover{}); sz > 240 {
		t.Fatalf("failover is %d bytes: past the 240-byte size class", sz)
	}
	if sz := unsafe.Sizeof(proto.LookupRequest{}); sz > 96 {
		t.Fatalf("a held LookupRequest is %d bytes: past the 96-byte size class", sz)
	}
}
