// Package routing implements the TreeP lookup machinery of §III.f: the
// tessellation-aware distance function D(a,b), and the three forwarding
// algorithms G (greedy), NG (non-greedy) and NGSA (non-greedy with
// fall-back) as pure decision functions over a node's routing table.
//
// Keeping the decision logic free of protocol state means the algorithms
// are unit-testable on hand-built tables, and the same code drives the
// simulator and the real UDP transport.
package routing

import (
	"math"

	"treep/internal/idspace"
	"treep/internal/proto"
)

// distance is D(a, b), the distance between a node a (whose hierarchy
// level matters) and a target coordinate b, in a hierarchy of height h.
// The paper (§III.f):
//
//	D(a,b) = d(a,b)                      if lvl_a = 0
//	D(a,b) = 0                           if d(a,b) ≤ L/2^(h−lvl_a)
//	D(a,b) = d(a,b) − L/2^(h−lvl_a)      otherwise
//
// "This distance function takes into account the location of a and b in
// the topology and the size of their tessellations": a node high in the
// hierarchy covers a wide slice of the space, so targets within its
// coverage radius are at distance zero. Outside the Hierarchical regime it
// is the Euclidean d(a,b) at every level, the fall-back of §III.f ("the
// Euclidian distance is used instead").
func distance(a proto.NodeRef, b idspace.ID, h uint8, r Regime) float64 {
	d := idspace.DistF(a.ID, b)
	if a.MaxLevel == 0 || r != Hierarchical {
		return d
	}
	cover := coverage(h, a.MaxLevel)
	if d <= cover {
		return 0
	}
	return d - cover
}

// coverage returns L/2^(h−lvl). A node at the top of the hierarchy
// (lvl = h) covers the whole space.
func coverage(height, lvl uint8) float64 {
	if lvl >= height {
		return idspace.SpaceExtent
	}
	return idspace.SpaceExtent / math.Pow(2, float64(height-lvl))
}
