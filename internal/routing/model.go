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

// Model computes the distance D(a, b) between a node a (whose hierarchy
// level matters) and a target coordinate b. The paper (§III.f):
//
//	D(a,b) = d(a,b)                      if lvl_a = 0
//	D(a,b) = 0                           if d(a,b) ≤ L/2^(h−lvl_a)
//	D(a,b) = d(a,b) − L/2^(h−lvl_a)      otherwise
//
// "This distance function takes into account the location of a and b in
// the topology and the size of their tessellations": a node high in the
// hierarchy covers a wide slice of the space, so targets within its
// coverage radius are at distance zero.
type Model interface {
	// D returns the distance from node a to coordinate b.
	D(a proto.NodeRef, b idspace.ID) float64
}

// PaperModel is the literal reconstruction of the paper's formula with
// coverage radius L/2^(h−lvl). Height is the hierarchy height h.
type PaperModel struct {
	Height uint8
}

// D implements Model.
func (m PaperModel) D(a proto.NodeRef, b idspace.ID) float64 {
	d := idspace.DistF(a.ID, b)
	if a.MaxLevel == 0 {
		return d
	}
	cover := coverage(m.Height, a.MaxLevel)
	if d <= cover {
		return 0
	}
	return d - cover
}

// EuclideanModel ignores the hierarchy entirely: D(a,b) = d(a,b). It is
// both the TTL>h fall-back of §III.f ("the Euclidian distance is used
// instead") and a baseline for ablations.
type EuclideanModel struct{}

// D implements Model.
func (EuclideanModel) D(a proto.NodeRef, b idspace.ID) float64 {
	return idspace.DistF(a.ID, b)
}

// coverage returns L/2^(h−lvl). A node at the top of the hierarchy
// (lvl = h) covers the whole space.
func coverage(height, lvl uint8) float64 {
	if lvl >= height {
		return idspace.SpaceExtent
	}
	return idspace.SpaceExtent / math.Pow(2, float64(height-lvl))
}
