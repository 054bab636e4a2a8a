package routing

import (
	"testing"

	"treep/internal/idspace"
	"treep/internal/proto"
)

func refAt(id idspace.ID, lvl uint8) proto.NodeRef {
	return proto.NodeRef{ID: id, Addr: uint64(id) + 1, MaxLevel: lvl}
}

// paperD is the paper's D at the evaluation's height, h = 6.
func paperD(a proto.NodeRef, b idspace.ID) float64 { return distance(a, b, 6, Hierarchical) }

func TestPaperModelLevelZeroIsEuclidean(t *testing.T) {
	a := refAt(1000, 0)
	if got, want := paperD(a, 4000), float64(3000); got != want {
		t.Fatalf("D = %v, want %v", got, want)
	}
}

func TestPaperModelCoverageZeroesDistance(t *testing.T) {
	// A level-5 node covers L/2^(6-5) = L/2: any target within half the
	// space is at distance 0.
	a := refAt(0, 5)
	if got := paperD(a, idspace.FromFraction(0.4)); got != 0 {
		t.Fatalf("level-5 node should cover 0.4L: D = %v", got)
	}
	if got := paperD(a, idspace.FromFraction(0.9)); got <= 0 {
		t.Fatalf("level-5 node should not cover 0.9L: D = %v", got)
	}
}

func TestPaperModelRootCoversEverything(t *testing.T) {
	root := refAt(0, 6)
	if got := paperD(root, idspace.MaxID); got != 0 {
		t.Fatalf("root D = %v, want 0", got)
	}
	// Levels above height also cover everything (clamped).
	over := refAt(0, 7)
	if got := paperD(over, idspace.MaxID); got != 0 {
		t.Fatalf("over-height D = %v", got)
	}
}

func TestPaperModelMonotoneInLevel(t *testing.T) {
	target := idspace.FromFraction(0.7)
	prev := paperD(refAt(0, 0), target)
	for lvl := uint8(1); lvl <= 6; lvl++ {
		d := paperD(refAt(0, lvl), target)
		if d > prev {
			t.Fatalf("D must not increase with level: lvl %d: %v > %v", lvl, d, prev)
		}
		prev = d
	}
}

func TestEuclideanModel(t *testing.T) {
	if euclidean(refAt(10, 5), 4) != 6 {
		t.Fatal("euclidean ignores level")
	}
}
