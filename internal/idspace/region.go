package idspace

import "fmt"

// Region is a contiguous, inclusive interval [Lo, Hi] of the ID space: one
// cell of a tessellation. A level-k node's region is the slice of level k-1
// it is responsible for (its children live inside it).
type Region struct {
	Lo, Hi ID
}

// FullRegion covers the whole space.
func FullRegion() Region { return Region{Lo: 0, Hi: MaxID} }

// String implements fmt.Stringer.
func (r Region) String() string { return fmt.Sprintf("[%s, %s]", r.Lo, r.Hi) }

// Contains reports whether x lies inside the region.
func (r Region) Contains(x ID) bool { return r.Lo <= x && x <= r.Hi }

// CellOf returns the cell owned by owners[i] when r is partitioned among the
// sorted, deduplicated owner IDs, which must lie inside r: cell boundaries
// fall on midpoints between adjacent owners, so every coordinate belongs to
// the owner nearest to it (the lower owner wins a midpoint tie, as in
// NearestIndex) and the cells cover r exactly. This is the 1-D tessellation
// of §III: each node is "responsible for its tessellation".
func (r Region) CellOf(owners []ID, i int) Region {
	lo := r.Lo
	if i > 0 {
		lo = Mid(owners[i-1], owners[i]) + 1
	}
	hi := r.Hi
	if i+1 < len(owners) {
		hi = Mid(owners[i], owners[i+1])
	}
	return Region{Lo: lo, Hi: hi}
}
