package svc

import (
	"errors"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/simrt"
)

// serveFunc adapts a function to Server.
type serveFunc func(from uint64, req proto.SvcMessage, respond func(proto.SvcMessage)) bool

func (f serveFunc) Serve(from uint64, req proto.SvcMessage, respond func(proto.SvcMessage)) bool {
	return f(from, req, respond)
}

// fetchServer serves DHTFetch alone, with h.
func fetchServer(h func(req *proto.DHTFetch, respond func(proto.SvcMessage))) Server {
	return serveFunc(func(_ uint64, req proto.SvcMessage, respond func(proto.SvcMessage)) bool {
		f, ok := req.(*proto.DHTFetch)
		if ok {
			h(f, respond)
		}
		return ok
	})
}

// echo answers a DHTFetch with a DHTFetchReply whose Version carries back
// the request's Key, so tests can check the right request reached the
// right server.
var echo = fetchServer(func(f *proto.DHTFetch, respond func(proto.SvcMessage)) {
	respond(&proto.DHTFetchReply{Found: true, Version: uint64(f.Key)})
})

func planeCluster(t *testing.T, n int, seed int64, netOpts ...netsim.Option) (*simrt.Cluster, []*Plane) {
	t.Helper()
	c := simrt.New(simrt.Options{N: n, Seed: seed, Bulk: true, NetOpts: netOpts})
	planes := make([]*Plane, n)
	for i, nd := range c.Nodes {
		planes[i] = new(Plane)
		planes[i].Init(nd, echo, proto.TDHTFetchReply)
	}
	c.StartAll()
	c.Run(4 * time.Second)
	return c, planes
}

func TestCallRoundTrip(t *testing.T) {
	c, planes := planeCluster(t, 20, 1)
	var got proto.SvcMessage
	var err error
	done := false
	to := c.Nodes[7].Addr()
	planes[0].Call(to, &proto.DHTFetch{Key: 42}, CallOpts{}, func(r proto.SvcMessage, e error) {
		got, err, done = r, e, true
	})
	c.Run(2 * time.Second)
	if !done || err != nil {
		t.Fatalf("call: done=%v err=%v", done, err)
	}
	if rep, ok := got.(*proto.DHTFetchReply); !ok || rep.Version != 42 {
		t.Fatalf("wrong response %#v", got)
	}
	if planes[7].Stats.Served != 1 {
		t.Fatalf("server Served=%d", planes[7].Stats.Served)
	}
}

func TestCallLocalFastPath(t *testing.T) {
	_, planes := planeCluster(t, 4, 2)
	done := false
	planes[1].Call(planes[1].Node().Addr(), &proto.DHTFetch{Key: 9}, CallOpts{},
		func(r proto.SvcMessage, e error) {
			if e != nil || r.(*proto.DHTFetchReply).Version != 9 {
				t.Fatalf("local call: %v %#v", e, r)
			}
			done = true
		})
	// Local dispatch is synchronous: no virtual time needed.
	if !done {
		t.Fatal("local call did not complete synchronously")
	}
}

func TestCallTimeoutOnDeadPeer(t *testing.T) {
	c, planes := planeCluster(t, 10, 3)
	dead := c.Nodes[5]
	c.Kill(dead)
	var err error
	done := false
	planes[0].Call(dead.Addr(), &proto.DHTFetch{Key: 1}, CallOpts{Timeout: time.Second},
		func(_ proto.SvcMessage, e error) { err = e; done = true })
	c.Run(3 * time.Second)
	if !done || !errors.Is(err, ErrTimeout) {
		t.Fatalf("done=%v err=%v", done, err)
	}
	if planes[0].Pending() != 0 {
		t.Fatalf("pending leak: %d", planes[0].Pending())
	}
}

func TestCallRetriesThroughLoss(t *testing.T) {
	// 40% datagram loss: a single attempt fails often, four retries almost
	// never do (the response can be lost too, hence the generous budget).
	c, planes := planeCluster(t, 12, 4, netsim.WithLoss(0.4))
	to := c.Nodes[8].Addr()
	ok := 0
	const calls = 20
	for i := 0; i < calls; i++ {
		planes[2].Call(to, &proto.DHTFetch{Key: idspace.ID(i)}, CallOpts{Timeout: 500 * time.Millisecond, Retries: 4},
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
	if planes[2].Stats.Retries == 0 {
		t.Fatal("no retries recorded under 40% loss")
	}
}

func TestCallKeyResolvesOwner(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c, planes := planeCluster(t, 100, 5)
	// Use a node's own coordinate so the expected owner is unambiguous.
	target := c.Nodes[60].ID()
	var owner proto.NodeRef
	var err error
	done := false
	planes[3].CallKey(target, proto.AlgoG, &proto.DHTFetch{Key: target}, CallOpts{},
		func(o proto.NodeRef, r proto.SvcMessage, e error) { owner, err, done = o, e, true })
	c.Run(4 * time.Second)
	if !done || err != nil {
		t.Fatalf("callkey: done=%v err=%v", done, err)
	}
	if owner.ID != target {
		t.Fatalf("owner %v, want %v", owner.ID, target)
	}
}

func TestCallKeyLocalOwner(t *testing.T) {
	c, planes := planeCluster(t, 10, 6)
	// A node's own ID resolves to itself: the call must serve locally.
	self := c.Nodes[2].ID()
	done := false
	planes[2].CallKey(self, proto.AlgoG, &proto.DHTFetch{Key: self}, CallOpts{},
		func(o proto.NodeRef, r proto.SvcMessage, e error) {
			if e != nil || o.Addr != c.Nodes[2].Addr() {
				t.Fatalf("local owner: %v %v", o, e)
			}
			done = true
		})
	c.Run(2 * time.Second)
	if !done {
		t.Fatal("callkey never resolved")
	}
}

func TestNoHandlerError(t *testing.T) {
	c, planes := planeCluster(t, 4, 7)
	var err error
	// The fixture's server does not serve DHTStore; a local call reports
	// ErrNoHandler immediately.
	planes[0].Call(c.Nodes[0].Addr(), &proto.DHTStore{Key: 1}, CallOpts{},
		func(_ proto.SvcMessage, e error) { err = e })
	if !errors.Is(err, ErrNoHandler) {
		t.Fatalf("err=%v", err)
	}
}

// TestUnservedTypeFallsThrough: a request the server does not serve is
// counted as unhandled and handed back to the node's extension chain.
func TestUnservedTypeFallsThrough(t *testing.T) {
	c, planes := planeCluster(t, 4, 7)
	p := planes[0]
	if p.handle(c.Nodes[1].Addr(), &proto.DHTStore{Key: 1}) {
		t.Fatal("the plane consumed a request type its server does not serve")
	}
	if p.Stats.Unhandled != 1 || p.Stats.Served != 0 {
		t.Fatalf("unhandled=%d served=%d, want 1 and 0", p.Stats.Unhandled, p.Stats.Served)
	}
	if !p.handle(c.Nodes[1].Addr(), &proto.DHTFetch{Key: 1}) {
		t.Fatal("the plane passed on a request type its server serves")
	}
	if p.Stats.Unhandled != 1 || p.Stats.Served != 1 {
		t.Fatalf("unhandled=%d served=%d, want 1 and 1", p.Stats.Unhandled, p.Stats.Served)
	}
}

func TestAsyncHandlerResponds(t *testing.T) {
	c, planes := planeCluster(t, 8, 8)
	// Node 5's server answers after a delay, as a server that consults
	// other nodes would.
	nd := c.Nodes[5]
	planes[5].srv = fetchServer(func(req *proto.DHTFetch, respond func(proto.SvcMessage)) {
		key := req.Key // copy before going async
		nd.SetTimer(700*time.Millisecond, func() {
			respond(&proto.DHTFetchReply{Found: true, Version: uint64(key)})
		})
	})
	done := false
	planes[1].Call(nd.Addr(), &proto.DHTFetch{Key: 77}, CallOpts{Timeout: 2 * time.Second},
		func(r proto.SvcMessage, e error) {
			if e != nil || r.(*proto.DHTFetchReply).Version != 77 {
				t.Fatalf("async response: %v %#v", e, r)
			}
			done = true
		})
	c.Run(3 * time.Second)
	if !done {
		t.Fatal("async handler response never arrived")
	}
}

func TestLateResponseAbsorbed(t *testing.T) {
	c, planes := planeCluster(t, 8, 9)
	nd := c.Nodes[4]
	// Answer after the caller's deadline: the caller must see exactly one
	// callback (the timeout), and the late response must be dropped.
	planes[4].srv = fetchServer(func(_ *proto.DHTFetch, respond func(proto.SvcMessage)) {
		nd.SetTimer(2*time.Second, func() {
			respond(&proto.DHTFetchReply{Found: true})
		})
	})
	fired := 0
	var firstErr error
	planes[0].Call(nd.Addr(), &proto.DHTFetch{Key: 3}, CallOpts{Timeout: 500 * time.Millisecond},
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

// TestSixtyFourInFlight holds 64 lookups from one origin, then 64 calls on
// one plane, in flight at the same instant and sees every one through: the
// pending tables are scanned linearly and sized for the five a loaded peer
// has been measured to hold (DESIGN.md §16).
func TestSixtyFourInFlight(t *testing.T) {
	const n = 64
	c, planes := planeCluster(t, 80, 6)
	p, node := planes[0], c.Nodes[0]

	answered := map[idspace.ID]int{}
	for i := 0; i < n; i++ {
		key := idspace.ID(uint64(i+1) * (uint64(idspace.MaxID) / (n + 1)))
		p.CallKey(key, proto.AlgoG, &proto.DHTFetch{Key: key}, CallOpts{Retries: 2},
			func(_ proto.NodeRef, r proto.SvcMessage, err error) {
				if err != nil || r.(*proto.DHTFetchReply).Version != uint64(key) {
					t.Errorf("key %v: %v %#v", key, err, r)
				}
				answered[key]++
			})
	}
	if got := node.PendingLookups(); got < n*3/4 {
		t.Fatalf("%d lookups in flight at once, want most of %d", got, n)
	}
	c.Run(10 * time.Second)
	if len(answered) != n || node.PendingLookups() != 0 || p.Pending() != 0 {
		t.Fatalf("%d of %d keys answered; %d lookups and %d calls still pending", len(answered), n, node.PendingLookups(), p.Pending())
	}

	done := 0
	for i := 0; i < n; i++ {
		p.Call(c.Nodes[1+i].Addr(), &proto.DHTFetch{Key: idspace.ID(i)}, CallOpts{Retries: 2}, func(r proto.SvcMessage, err error) {
			if err != nil || r.(*proto.DHTFetchReply).Version != uint64(i) {
				t.Errorf("call %d: %v %#v", i, err, r)
			}
			done++
		})
	}
	if p.Pending() != n {
		t.Fatalf("%d calls in flight at once, want %d", p.Pending(), n)
	}
	c.Run(5 * time.Second)
	if done != n || p.Pending() != 0 {
		t.Fatalf("%d of %d calls answered, %d still pending", done, n, p.Pending())
	}
	for key, times := range answered {
		if times != 1 {
			t.Errorf("key %v answered %d times", key, times)
		}
	}
}
