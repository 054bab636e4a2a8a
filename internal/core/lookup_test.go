package core

import (
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
)

func TestLookupLocalDeliver(t *testing.T) {
	n, _ := testNode(100, 1)
	target := mkRef(500, 5, 0)
	n.InstallLevel0(target)
	var got LookupResult
	n.Lookup(500, proto.AlgoG, func(r LookupResult) { got = r })
	if got.Status != LookupFound || got.Best.Addr != 5 || got.Hops != 0 {
		t.Fatalf("result %+v", got)
	}
	if n.PendingLookups() != 0 {
		t.Fatal("pending leak")
	}
}

func TestLookupSelfTarget(t *testing.T) {
	n, _ := testNode(100, 1)
	var got LookupResult
	n.Lookup(100, proto.AlgoG, func(r LookupResult) { got = r })
	if got.Status != LookupFound || got.Best.Addr != 1 {
		t.Fatalf("result %+v", got)
	}
}

func TestLookupImmediateNotFound(t *testing.T) {
	// An isolated node's own lookups dead-end immediately: claiming
	// ownership of every coordinate would let writes succeed locally while
	// the rest of the overlay resolves the key elsewhere.
	n, _ := testNode(100, 1)
	var got LookupResult
	n.Lookup(999, proto.AlgoG, func(r LookupResult) { got = r })
	if got.Status != LookupNotFound {
		t.Fatalf("result %+v", got)
	}
}

// TestJoiningLookupWaitsForItsJoin: a node whose join is not yet answered
// has an empty table, and that is no dead end. Its lookup parks until the
// first re-issue, which routes it on what the JoinAccept brought.
func TestJoiningLookupWaitsForItsJoin(t *testing.T) {
	env := newFakeEnv(1)
	cfg := Defaults()
	cfg.ID = 100
	n := NewNode(cfg, env)
	n.Join(9)
	env.drain()
	fired := false
	id := n.Lookup(999, proto.AlgoG, func(LookupResult) { fired = true })
	if fired || id == 0 || n.PendingLookups() != 1 {
		t.Fatalf("a joining node's lookup should park: fired %v, id %d, pending %d", fired, id, n.PendingLookups())
	}
	if reqs := msgsOfType[*proto.LookupRequest](env.drain()); len(reqs) != 0 {
		t.Fatalf("a parked lookup forwarded %d requests", len(reqs))
	}
	n.HandleMessage(9, &proto.JoinAccept{From: mkRef(400, 9, 0), Left: mkRef(50, 5, 0)})
	env.drain()
	env.advance(n.lookupRTO())
	reqs := msgsOfType[*proto.LookupRequest](env.drain())
	if len(reqs) != 1 || reqs[0].ReqID != id || fired {
		t.Fatalf("the re-issue should forward the parked lookup: %d requests, fired %v", len(reqs), fired)
	}
}

func TestLookupForwardAndReply(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	n.InstallLevel0(nbr)
	env.drain()
	fired := false
	var got LookupResult
	id := n.Lookup(500, proto.AlgoG, func(r LookupResult) { fired = true; got = r })
	reqs := msgsOfType[*proto.LookupRequest](env.drain())
	if len(reqs) != 1 {
		t.Fatalf("forwarded %d requests", len(reqs))
	}
	if reqs[0].Hops != 1 || reqs[0].TTL != MaxTTL-1 {
		t.Fatalf("hop/ttl accounting: %+v", reqs[0])
	}
	if fired {
		t.Fatal("callback before reply")
	}
	// Reply arrives.
	n.HandleMessage(4, &proto.LookupReply{
		From: nbr, ReqID: id, Status: proto.LookupFound,
		Best: mkRef(500, 5, 0), Hops: 3,
	})
	if !fired || got.Status != LookupFound || got.Hops != 3 {
		t.Fatalf("result %+v", got)
	}
	// Duplicate reply is ignored.
	n.HandleMessage(4, &proto.LookupReply{From: nbr, ReqID: id, Status: proto.LookupNotFound})
	if got.Status != LookupFound {
		t.Fatal("duplicate reply overwrote result")
	}
}

func TestHandleLookupRequestDeliver(t *testing.T) {
	n, env := testNode(500, 5)
	origin := mkRef(100, 1, 0)
	req := &proto.LookupRequest{Origin: origin, Target: 500, ReqID: 9, TTL: 200, Hops: 3, Algo: proto.AlgoG}
	n.HandleMessage(4, req)
	replies := msgsOfType[*proto.LookupReply](env.drain())
	if len(replies) != 1 {
		t.Fatal("no reply")
	}
	r := replies[0]
	if r.Status != proto.LookupFound || r.Best.Addr != 5 || r.Hops != 3 || r.ReqID != 9 {
		t.Fatalf("reply %+v", r)
	}
}

func TestHandleLookupRequestForwardDecrementsTTL(t *testing.T) {
	n, env := testNode(100, 1)
	n.InstallLevel0(mkRef(400, 4, 0))
	env.drain()
	req := &proto.LookupRequest{Origin: mkRef(50, 9, 0), Target: 500, ReqID: 9, TTL: 10, Hops: 2, Algo: proto.AlgoG}
	n.HandleMessage(9, req)
	fwds := msgsOfType[*proto.LookupRequest](env.drain())
	if len(fwds) != 1 || fwds[0].TTL != 9 || fwds[0].Hops != 3 {
		t.Fatalf("forward %+v", fwds)
	}
	// Original request object must not be mutated (zero-copy transport).
	if req.TTL != 10 || req.Hops != 2 {
		t.Fatal("request mutated in place")
	}
}

func TestHandleLookupRequestTTLDrop(t *testing.T) {
	n, env := testNode(100, 1)
	n.InstallLevel0(mkRef(400, 4, 0))
	env.drain()
	req := &proto.LookupRequest{Origin: mkRef(50, 9, 0), Target: 500, ReqID: 9, TTL: 0, Hops: 255, Algo: proto.AlgoG}
	n.HandleMessage(9, req)
	if len(env.drain()) != 0 {
		t.Fatal("TTL-dead request must be silently discarded")
	}
	if n.Stats.LookupsDropped != 1 {
		t.Fatal("drop not counted")
	}
}

func TestHandleLookupRequestIsolatedDeliversSelf(t *testing.T) {
	// A node that knows nobody but the sender is its own best owner
	// estimate (the owner of a coordinate is the nearest node): it answers
	// Found with itself rather than NotFound, which is what lets a
	// two-node overlay resolve key owners. The origin judges exact-node
	// lookups against Best, so a wrong estimate still reads as a miss.
	n, env := testNode(100, 1)
	req := &proto.LookupRequest{Origin: mkRef(50, 9, 0), Target: 500, ReqID: 9, TTL: 10, Algo: proto.AlgoG}
	n.HandleMessage(9, req)
	replies := msgsOfType[*proto.LookupReply](env.drain())
	if len(replies) != 1 || replies[0].Status != proto.LookupFound || replies[0].Best.Addr != n.Addr() {
		t.Fatalf("replies %+v", replies)
	}
}

func TestLookupStatusString(t *testing.T) {
	for s, want := range map[LookupStatus]string{
		LookupFound: "found", LookupNotFound: "not-found", LookupTimeout: "timeout", LookupStatus(9): "status(?)",
	} {
		if s.String() != want {
			t.Errorf("%d -> %q", s, s.String())
		}
	}
}

func TestStopClearsPendingLookups(t *testing.T) {
	n, env := testNode(100, 1)
	n.InstallLevel0(mkRef(400, 4, 0))
	n.Lookup(500, proto.AlgoG, func(LookupResult) { t.Fatal("callback after stop") })
	n.Stop()
	env.advance(time.Minute)
	if n.PendingLookups() != 0 {
		t.Fatal("pending leak after stop")
	}
}

// TestRecycledLookupRecordCompletesOnce: a finished lookup's record goes
// back to the pool, and the next lookup takes it. Neither a late duplicate
// of the finished lookup's reply nor the re-issue timer it had armed may
// complete or re-issue the lookup that now holds the record.
func TestRecycledLookupRecordCompletesOnce(t *testing.T) {
	n, env := testNode(100, 1)
	nbr := mkRef(400, 4, 0)
	n.InstallLevel0(nbr)
	env.drain()
	reply := func(id uint64, status proto.LookupStatus) {
		n.HandleMessage(4, &proto.LookupReply{From: nbr, ReqID: id, Status: status, Best: mkRef(500, 5, 0), Hops: 1})
	}
	var first, second []LookupResult
	a := n.Lookup(500, proto.AlgoG, func(r LookupResult) { first = append(first, r) })
	reply(a, proto.LookupFound)
	rto := n.lookupRTO()
	env.advance(rto / 2)
	b := n.Lookup(600, proto.AlgoG, func(r LookupResult) { second = append(second, r) })
	reply(a, proto.LookupNotFound) // the duplicate, late
	// Past the instant a's cancelled timer was due, short of b's own.
	env.advance(rto * 3 / 4)
	if len(first) != 1 || len(second) != 0 || n.Stats.LookupReissues != 0 || n.PendingLookups() != 1 {
		t.Fatalf("after a's late reply and timer: a answered %d times, b %d times, %d re-issues, %d pending",
			len(first), len(second), n.Stats.LookupReissues, n.PendingLookups())
	}
	reply(b, proto.LookupFound)
	if len(second) != 1 || second[0].Status != LookupFound {
		t.Fatalf("b's own reply: %+v", second)
	}
}

func TestLookupHopsZeroBased(t *testing.T) {
	// The origin resolving from its own table reports 0 hops; a neighbour
	// that delivers reports the hops the request had accumulated.
	n, _ := testNode(100, 1)
	n.InstallLevel0(mkRef(idspace.ID(500), 5, 0))
	var got LookupResult
	n.Lookup(500, proto.AlgoNG, func(r LookupResult) { got = r })
	if got.Hops != 0 {
		t.Fatalf("local hops %d", got.Hops)
	}
}
