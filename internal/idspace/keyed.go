package idspace

import (
	"cmp"
	"slices"
	"unsafe"
)

// Keyed is a slab of values held by key, the keys ascending and the values
// beside them: the order is the index (a lookup bisects it), a rank, and an
// iteration order that is the same in every run (ranging over a map is
// not). A peer keeps its small sets in it — per-peer states, lookups and
// calls in flight, handlers, stored records: a median of ten entries in the
// largest, 53 at most (DESIGN.md §16), where a hash table costs more bytes
// and no less time. The zero value is an empty set.
//
// The slices grow together along NextCap's sequence, as rtable.Set does.
// Removal keeps the capacity: Delete promises not to move the slab under a
// walk, so a set that drains keeps its slabs until Release (rtable.Set
// moves down to a smaller slab when a sweep drains it). Growth
// leaves no garbage: the outgrown slabs go back to process-wide pools for
// their element type and size, and the next size comes from one when a set
// gave it back first; Release gives both slabs back at once. Pointers into
// the slab (Find, Put) and the Keys() slice are valid until the next Put
// of a new key, Delete or Release: after a growing Put or a Release the
// slab they read may belong to another set, on any goroutine of the
// process (DESIGN.md §16). Deleting keys[i] moves only what lies behind
// it: a walk that deletes runs over Keys() from the back.
type Keyed[K cmp.Ordered, V any] struct {
	keys []K
	vals []V // vals[i] belongs to keys[i]
}

// Len returns the number of keys held.
func (s *Keyed[K, V]) Len() int { return len(s.keys) }

// Keys returns the keys in ascending order. The slice is the set's own:
// callers must not modify it, and a Delete shifts it in place.
func (s *Keyed[K, V]) Keys() []K { return s.keys }

// Find returns where the value stored under k lies, or nil.
func (s *Keyed[K, V]) Find(k K) *V {
	if i, ok := slices.BinarySearch(s.keys, k); ok {
		return &s.vals[i]
	}
	return nil
}

// Get returns a copy of the value stored under k.
func (s *Keyed[K, V]) Get(k K) (v V, ok bool) {
	if p := s.Find(k); p != nil {
		return *p, true
	}
	return v, false
}

// Put stores v under k, replacing any value already there, and returns
// where it lies.
func (s *Keyed[K, V]) Put(k K, v V) *V {
	i, ok := slices.BinarySearch(s.keys, k)
	if !ok {
		if c := cap(s.keys); len(s.keys) == c {
			s.grow(NextCap(c))
		}
		s.keys, s.vals = slices.Insert(s.keys, i, k), slices.Insert(s.vals, i, v)
	}
	s.vals[i] = v
	return &s.vals[i]
}

// grow moves the set to slabs of c entries and gives the outgrown ones
// back, after the copy out of them: until then they are the set's.
func (s *Keyed[K, V]) grow(c int) {
	keys, vals := append(TakeSlab[K](c), s.keys...), append(TakeSlab[V](c), s.vals...)
	s.Release()
	s.keys, s.vals = keys, vals
}

// Delete removes k and reports whether it was held.
func (s *Keyed[K, V]) Delete(k K) bool {
	i, ok := slices.BinarySearch(s.keys, k)
	if ok {
		s.keys, s.vals = slices.Delete(s.keys, i, i+1), slices.Delete(s.vals, i, i+1)
	}
	return ok
}

// Release gives both slabs back to their pools and leaves the set empty,
// as the zero value is: for a set that has emptied and may stay so, or
// whose owner is done with it.
func (s *Keyed[K, V]) Release() {
	PutSlab(s.keys)
	PutSlab(s.vals)
	*s = Keyed[K, V]{}
}

// MemBytes reports the heap behind the set: capacity × element size.
func (s *Keyed[K, V]) MemBytes() int {
	var k K
	var v V
	return cap(s.keys)*int(unsafe.Sizeof(k)) + cap(s.vals)*int(unsafe.Sizeof(v))
}
