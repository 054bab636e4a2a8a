package core

import (
	"math"
	"testing"

	"treep/internal/idspace"
	"treep/internal/nodeprof"
	"treep/internal/proto"
	"treep/internal/routing"
)

// buildNodes creates n nodes with evenly spread IDs and mid-range profiles.
func buildNodes(t *testing.T, n int, mutate ...func(*Config)) []*Node {
	t.Helper()
	nodes := make([]*Node, n)
	gen := nodeprof.NewGenerator(42)
	assigner := idspace.BalancedAssigner{}
	for i := 0; i < n; i++ {
		cfg := Defaults()
		cfg.ID = assigner.Assign(i, n)
		cfg.Profile = gen.Next()
		for _, m := range mutate {
			m(&cfg)
		}
		nodes[i] = NewNode(cfg, newFakeEnv(uint64(i+1)))
	}
	return nodes
}

func TestBulkBuildLevelCounts(t *testing.T) {
	nodes := buildNodes(t, 256)
	counts := BulkBuild(nodes, 6)
	if counts[0] != 256 {
		t.Fatalf("level 0 count %d", counts[0])
	}
	for lvl := 1; lvl < len(counts); lvl++ {
		if counts[lvl] >= counts[lvl-1] {
			t.Fatalf("level %d (%d) not smaller than level %d (%d)",
				lvl, counts[lvl], lvl-1, counts[lvl-1])
		}
	}
	// With nc=4 the reduction factor should be close to 4.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 2.5 || ratio > 6 {
		t.Fatalf("level reduction ratio %v, want ~4", ratio)
	}
}

func TestBulkBuildHeightLaw(t *testing.T) {
	// §III.e: h ≈ log_c((n+1)/2). With c≈4 and n=1024 the height should be
	// about 4–6 levels.
	nodes := buildNodes(t, 1024)
	counts := BulkBuild(nodes, 8)
	h := len(counts) - 1
	predicted := math.Log(float64(1024+1)/2) / math.Log(4)
	if float64(h) < predicted-2 || float64(h) > predicted+3 {
		t.Fatalf("height %d far from predicted %.1f", h, predicted)
	}
}

func TestBulkBuildEveryNodeHasParentExceptTop(t *testing.T) {
	nodes := buildNodes(t, 128)
	counts := BulkBuild(nodes, 6)
	top := uint8(len(counts) - 1)
	for _, nd := range nodes {
		_, hasParent := nd.Table().Parent()
		if nd.MaxLevel() == top {
			continue // top-level members may be parentless
		}
		if !hasParent {
			t.Fatalf("node %v (lvl %d) has no parent", nd.ID(), nd.MaxLevel())
		}
	}
}

func TestBulkBuildParentCoversChild(t *testing.T) {
	nodes := buildNodes(t, 128)
	BulkBuild(nodes, 6)
	byAddr := map[uint64]*Node{}
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	for _, nd := range nodes {
		p, ok := nd.Table().Parent()
		if !ok {
			continue
		}
		parent := byAddr[p.Addr]
		if parent == nil {
			t.Fatalf("parent addr %d unknown", p.Addr)
		}
		if parent.MaxLevel() < nd.MaxLevel()+1 {
			t.Fatalf("parent level %d too low for child level %d",
				parent.MaxLevel(), nd.MaxLevel())
		}
		// The child must appear in the parent's children table.
		if parent.Table().Children.Get(nd.Addr()) == nil {
			t.Fatalf("child %v missing from parent %v children table", nd.ID(), parent.ID())
		}
	}
}

func TestBulkBuildChildLoadRespectsPolicy(t *testing.T) {
	nodes := buildNodes(t, 256)
	BulkBuild(nodes, 6)
	over := 0
	for _, nd := range nodes {
		if nd.MaxLevel() == 0 {
			continue
		}
		if nd.Table().Children.Len() > nd.MaxChildren()+2 {
			over++
		}
	}
	// Midpoint tessellation can overload a few parents slightly; the live
	// protocol splits them. Tolerate a small fraction.
	if over > len(nodes)/10 {
		t.Fatalf("%d parents grossly overloaded", over)
	}
}

func TestBulkBuildLevel0Neighbors(t *testing.T) {
	nodes := buildNodes(t, 64)
	BulkBuild(nodes, 6)
	for i, nd := range nodes {
		l0 := nd.Table().Level0.Len()
		if l0 < 2 {
			t.Fatalf("node %d has only %d level-0 entries", i, l0)
		}
	}
}

func TestBulkBuildBusLinks(t *testing.T) {
	nodes := buildNodes(t, 256)
	counts := BulkBuild(nodes, 6)
	if len(counts) < 3 {
		t.Skip("tree too shallow")
	}
	for _, nd := range nodes {
		for lvl := uint8(1); lvl <= nd.MaxLevel(); lvl++ {
			bus := nd.Table().BusAt(lvl)
			if counts[lvl] > 1 && (bus == nil || bus.Len() == 0) {
				t.Fatalf("node %v member of lvl %d has no bus entries", nd.ID(), lvl)
			}
		}
	}
}

func TestBulkBuildSuperiors(t *testing.T) {
	nodes := buildNodes(t, 256)
	counts := BulkBuild(nodes, 6)
	if len(counts) < 3 {
		t.Skip("tree too shallow")
	}
	// Level-0 nodes deep in the tree should know ancestors above their
	// parent.
	withSups := 0
	for _, nd := range nodes {
		if nd.MaxLevel() == 0 && nd.Table().Superiors.Len() > 0 {
			withSups++
		}
	}
	if withSups == 0 {
		t.Fatal("no level-0 node has a superior list")
	}
}

func TestBulkBuildLookupWorksOffline(t *testing.T) {
	// Routing over bulk-built tables alone (no protocol running): every
	// origin should resolve every target within the TTL by walking tables.
	nodes := buildNodes(t, 128)
	BulkBuild(nodes, 6)
	byAddr := map[uint64]*Node{}
	for _, nd := range nodes {
		byAddr[nd.Addr()] = nd
	}
	resolve := func(origin *Node, target idspace.ID) (bool, int) {
		req := &proto.LookupRequest{Origin: origin.Ref(), Target: target, TTL: 255, Algo: proto.AlgoG}
		cur := origin
		var from uint64
		var sc routing.Scratch
		for hops := 0; hops < 256; hops++ {
			parent, hasParent := cur.Table().Parent()
			fromParent := hasParent && parent.Addr == from
			step := routing.RouteWith(&sc, cur.Ref(), cur.Table(), req, fromParent, from, cur.Config().Routing)
			switch step.Action {
			case routing.Deliver:
				return true, hops
			case routing.NotFound, routing.Drop:
				return false, hops
			}
			from = cur.Addr()
			next := byAddr[step.Next.Addr]
			if next == nil {
				return false, hops
			}
			req.TTL--
			req.Hops++
			req.Alternates = step.Alternates
			cur = next
		}
		return false, 255
	}
	ok, fail := 0, 0
	var totalHops int
	for i := 0; i < len(nodes); i += 7 {
		for j := 3; j < len(nodes); j += 13 {
			found, hops := resolve(nodes[i], nodes[j].ID())
			if found {
				ok++
				totalHops += hops
			} else {
				fail++
			}
		}
	}
	if fail > 0 {
		t.Fatalf("steady-state lookups failed: %d ok, %d failed", ok, fail)
	}
	avg := float64(totalHops) / float64(ok)
	if avg > 12 {
		t.Fatalf("average hops %.1f too high for steady state", avg)
	}
}
