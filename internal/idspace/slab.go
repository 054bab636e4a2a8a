package idspace

import (
	"slices"
	"sync"
	"unsafe"
)

// The slab pools of the process: a set that outgrows its slab gives it
// back here and takes the next size from here, so a joining peer whose
// sets step through a dozen sizes leaves no garbage behind (DESIGN.md §16,
// "Slabs that change hands"). Keyed and rtable.Set draw on them.

// slabCaps are the sizes Keyed and rtable.Set step through from empty by
// NextCap, as TestSlabGrowth and TestSetGrowthPolicy pin, up to the
// largest a pool keeps; a set that a sweep drains steps back down to
// FitCap. No set of a settled 2000-peer overlay outgrows 63; one that does
// makes its slabs to measure.
var slabCaps = [...]int{2, 4, 6, 8, 10, 12, 15, 18, 22, 27, 33, 41, 51, 63}

// NextCap is the capacity a full set of capacity c grows to: a quarter
// more, at least two. Exact fit would allocate on every insert, doubling
// would leave half of every slab unused.
func NextCap(c int) int { return c + max(2, c/4) }

// FitCap is the least capacity on NextCap's sequence from empty that holds
// n entries: the slab a drained set moves down to.
func FitCap(n int) int {
	c := 0
	for c < n {
		c = NextCap(c)
	}
	return c
}

// slabPools holds the idle slabs of one element type, by index into
// slabCaps. A pool holds a slab by its first element, so Put does not
// allocate.
type slabPools [len(slabCaps)]sync.Pool

// poolRegistry maps an element type, as any((*T)(nil)), to its
// *slabPools. It is read on the growth path alone, so a Keyed carries no
// pool of its own and its zero value stays an empty set.
var poolRegistry sync.Map

// poolFor returns the pool for slabs of c elements of T, or nil for a
// capacity no pool keeps.
func poolFor[T any](c int) *sync.Pool {
	i, ok := slices.BinarySearch(slabCaps[:], c)
	if !ok {
		return nil
	}
	key := any((*T)(nil))
	p, ok := poolRegistry.Load(key)
	if !ok {
		p, _ = poolRegistry.LoadOrStore(key, new(slabPools))
	}
	return &p.(*slabPools)[i]
}

// TakeSlab returns an empty slice with room for c elements, on a slab from
// its pool when one is idle. A pooled slab was cleared when it went in.
// The slab is the caller's until it gives it back with PutSlab.
func TakeSlab[T any](c int) []T {
	if p := poolFor[T](c); p != nil {
		if base, _ := p.Get().(*T); base != nil {
			return unsafe.Slice(base, c)[:0]
		}
	}
	return make([]T, 0, c)
}

// PutSlab clears the slab behind sl, so that an idle slab keeps nothing
// alive, and gives it back to its pool; a slab of any other capacity
// (none, or made to measure) is dropped. The caller must hold no pointer
// into it: the next TakeSlab of its size, on any goroutine, may hand it to
// another set.
func PutSlab[T any](sl []T) {
	if p := poolFor[T](cap(sl)); p != nil {
		sl = sl[:cap(sl)]
		clear(sl)
		p.Put(&sl[0])
	}
}
