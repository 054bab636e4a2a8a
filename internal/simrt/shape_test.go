package simrt

import (
	"fmt"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
)

// shapeRow is one instant of the shape census on a quiet overlay.
type shapeRow struct {
	at                   time.Duration
	parentless           int
	levels               []int // peers per top level
	peerHops, keyHops    float64
	peersFound, keysDone int
	splits, demotions    uint64
}

// shapeCensus counts the tree's shape at the cluster's current instant and
// then runs lookups lookups to random peers and as many to random keys
// (AlgoG), one after the other from random origins, until they have all
// answered or timed out.
func shapeCensus(c *Cluster, lookups int) shapeRow {
	row := shapeRow{at: c.Now()}
	alive := c.AliveNodes()
	for _, nd := range alive {
		if _, ok := nd.Table().Parent(); !ok {
			row.parentless++
		}
		lvl := int(nd.MaxLevel())
		for len(row.levels) <= lvl {
			row.levels = append(row.levels, 0)
		}
		row.levels[lvl]++
	}
	st := c.ProtocolStats()
	row.splits, row.demotions = st.Splits, st.Demotions
	rng := c.Rand()
	var peerHops, keyHops int
	for range lookups {
		origin := alive[rng.Intn(len(alive))]
		target := alive[rng.Intn(len(alive))].ID()
		origin.Lookup(target, proto.AlgoG, func(r core.LookupResult) {
			if r.Status == core.LookupFound && r.Best.ID == target {
				row.peersFound++
				peerHops += r.Hops
			}
		})
		origin.Lookup(idspace.ID(rng.Uint64()), proto.AlgoG, func(r core.LookupResult) {
			if r.Status == core.LookupFound {
				row.keysDone++
				keyHops += r.Hops
			}
		})
	}
	if lookups > 0 {
		c.Run(origin0Timeout(c) + time.Second)
	}
	row.peerHops = float64(peerHops) / float64(max(row.peersFound, 1))
	row.keyHops = float64(keyHops) / float64(max(row.keysDone, 1))
	return row
}

// above counts the peers whose top level is above level.
func (r shapeRow) above(level int) int {
	count := 0
	for _, k := range r.levels[min(level+1, len(r.levels)):] {
		count += k
	}
	return count
}

func (r shapeRow) String() string {
	return fmt.Sprintf("t=%3.0fs  parentless %3d  top %d  levels %v  peer %.2f hops (%d)  key %.2f hops (%d)  splits %d  demotions %d",
		r.at.Seconds(), r.parentless, len(r.levels)-1, r.levels, r.peerHops, r.peersFound, r.keyHops, r.keysDone, r.splits, r.demotions)
}

// TestTreeKeepsItsShape: a quiet bulk-built overlay stays the tree it was
// built as. A parent splits only the level whose children exceed nc, so
// above the bulk build's top level there is at most the one root an
// election puts over its tops (seed 2 grows one), peers stay parented,
// the hierarchy comes to rest and lookups keep the hop count of the first
// seconds. Counting every level's children against nc made each
// node above level 1 promote a child every two report intervals, and the
// promotions piled up into a bus of roots at MaxHeight (DESIGN.md §2, "A
// tree that comes to rest"). The census is logged at t = 0, 10, 60 and
// 300 s; the bounds are checked at 60 and 300 s. N=300 runs always; the
// full run adds N=2000 (ROADMAP item 18's table), held to its hop bound.
func TestTreeKeepsItsShape(t *testing.T) {
	const lookups = 200
	sizes := []int{300}
	if !testing.Short() {
		sizes = append(sizes, 2000)
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			c := New(Options{N: n, Seed: seed, Bulk: true})
			c.StartAll()
			built := len(c.LevelCounts) - 1
			var rows []shapeRow
			for i, at := range []time.Duration{0, 10 * time.Second, 60 * time.Second, 300 * time.Second} {
				c.RunUntil(at)
				rows = append(rows, shapeCensus(c, min(i, 1)*lookups)) // the bulk build's shape, then lookups
				t.Logf("N=%d seed %d  %v", n, seed, rows[len(rows)-1])
			}
			at60, at300 := rows[2], rows[3]
			for _, r := range []shapeRow{at60, at300} {
				if r.peersFound < lookups*19/20 {
					t.Errorf("N=%d seed %d t=%v: %d of %d peer lookups found their peer", n, seed, r.at, r.peersFound, lookups)
				}
				if r.peerHops > shapeHopBound(n) {
					t.Errorf("N=%d seed %d t=%v: %.2f hops to a peer, bound %.1f", n, seed, r.at, r.peerHops, shapeHopBound(n))
				}
				if n != 300 {
					continue // the remaining bounds are N=300's
				}
				if above := r.above(built); above > 1 {
					t.Errorf("N=%d seed %d t=%v: %d peers above the bulk build's top level %d, at most one root may be", n, seed, r.at, above, built)
				}
				if r.parentless > 6 {
					t.Errorf("N=%d seed %d t=%v: %d parentless peers, bound 6", n, seed, r.at, r.parentless)
				}
			}
			if splits := at300.splits - at60.splits; n == 300 && splits > 150 {
				t.Errorf("N=%d seed %d: %d splits between t=60s and t=300s, bound 150", n, seed, splits)
			}
		}
	}
}

// shapeHopBound is the mean hops to a peer a quiet overlay of n peers
// keeps: 2.1 at N=300, and ROADMAP item 18's 3.7 at N=2000.
func shapeHopBound(n int) float64 {
	if n <= 300 {
		return 2.1
	}
	return 3.7
}
