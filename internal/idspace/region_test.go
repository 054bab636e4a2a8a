package idspace

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRegionBasics(t *testing.T) {
	r := Region{Lo: 100, Hi: 200}
	if !r.Contains(100) || !r.Contains(200) || !r.Contains(150) {
		t.Error("Contains inclusive bounds")
	}
	if r.Contains(99) || r.Contains(201) {
		t.Error("Contains outside")
	}
	full := FullRegion()
	if !full.Contains(0) || !full.Contains(MaxID) {
		t.Error("FullRegion should span the space")
	}
}

func TestTessellate(t *testing.T) {
	r := Region{Lo: 0, Hi: 100}
	owners := []ID{10, 30, 80}
	// Boundaries at midpoints 20 and 55.
	want := []Region{{0, 20}, {21, 55}, {56, 100}}
	for i := range want {
		if got := r.CellOf(owners, i); got != want[i] {
			t.Errorf("cell %d = %v, want %v", i, got, want[i])
		}
	}
	if r.CellOf([]ID{50}, 0) != r {
		t.Error("single owner should own the whole region")
	}
}

func TestTessellationCoversAndIsDisjoint(t *testing.T) {
	prop := func(raw []uint64) bool {
		if len(raw) == 0 {
			return true
		}
		owners := make([]ID, len(raw))
		for i, v := range raw {
			owners[i] = ID(v)
		}
		slices.Sort(owners)
		owners = slices.Compact(owners)
		r := FullRegion()
		cells := make([]Region, len(owners))
		for i := range owners {
			cells[i] = r.CellOf(owners, i)
		}
		// Exact cover: first cell starts at r.Lo, last ends at r.Hi, and
		// consecutive cells are adjacent.
		if cells[0].Lo != r.Lo || cells[len(cells)-1].Hi != r.Hi {
			return false
		}
		for i := 1; i < len(cells); i++ {
			if cells[i-1].Hi+1 != cells[i].Lo {
				return false
			}
		}
		// Each owner must be inside its own cell.
		for i, o := range owners {
			if !cells[i].Contains(o) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestOwnerIndexAgreesWithCells(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	owners := make([]ID, 16)
	for i := range owners {
		owners[i] = ID(rng.Uint64())
	}
	slices.Sort(owners)
	owners = slices.Compact(owners)
	r := FullRegion()
	for trial := 0; trial < 1000; trial++ {
		x := ID(rng.Uint64())
		idx := NearestIndex(owners, x)
		if cell := r.CellOf(owners, idx); !cell.Contains(x) {
			t.Fatalf("owner %d cell %v does not contain %v", idx, cell, x)
		}
	}
}
