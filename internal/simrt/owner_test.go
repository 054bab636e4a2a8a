package simrt

import (
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
)

// TestKeyLookupEndsAtOwner: on a quiet overlay a lookup for a key (an ID
// no peer holds) ends at the key's owner, the globally nearest peer, under
// every algorithm. The owner check comes before the hierarchy, so a node
// that knows nobody nearer delivers itself, and one that does is
// Euclidean-nearer than any node the hierarchy would step to. Key and peer
// mean hops are logged side by side.
func TestKeyLookupEndsAtOwner(t *testing.T) {
	const n, perAlgo = 300, 100
	algos := []proto.Algo{proto.AlgoG, proto.AlgoNG, proto.AlgoNGSA}
	for seed := int64(1); seed <= 3; seed++ {
		c := New(Options{N: n, Seed: seed, Bulk: true})
		c.StartAll()
		c.RunUntil(10 * time.Second)
		alive := c.AliveNodes()
		rng := c.Rand()
		nearest := func(x idspace.ID) proto.NodeRef {
			best := alive[0].Ref()
			for _, nd := range alive[1:] {
				if proto.Nearer(x, nd.Ref(), best) {
					best = nd.Ref()
				}
			}
			return best
		}
		type tally struct{ owner, done, keyHops, peerHops, peers int }
		tallies := make([]tally, len(algos))
		for i, algo := range algos {
			tl := &tallies[i]
			for range perAlgo {
				origin := alive[rng.Intn(len(alive))]
				key := idspace.ID(rng.Uint64())
				want := nearest(key)
				origin.Lookup(key, algo, func(r core.LookupResult) {
					tl.done++
					if r.Status == core.LookupFound && r.Best.Addr == want.Addr {
						tl.owner++
						tl.keyHops += r.Hops
					}
				})
				target := alive[rng.Intn(len(alive))].ID()
				origin.Lookup(target, algo, func(r core.LookupResult) {
					if r.Status == core.LookupFound && r.Best.ID == target {
						tl.peers++
						tl.peerHops += r.Hops
					}
				})
			}
		}
		c.Run(core.LookupDeadline + time.Second)
		for i, tl := range tallies {
			if tl.done != perAlgo || tl.owner != perAlgo {
				t.Errorf("seed %d %v: %d of %d key lookups ended at the owner (%d answered)",
					seed, algos[i], tl.owner, perAlgo, tl.done)
			}
			t.Logf("seed %d %v: key %.2f hops (%d owners), peer %.2f hops (%d found)", seed, algos[i],
				float64(tl.keyHops)/float64(max(tl.owner, 1)), tl.owner,
				float64(tl.peerHops)/float64(max(tl.peers, 1)), tl.peers)
		}
	}
}
