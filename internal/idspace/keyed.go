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
// The slices grow together by a quarter (at least two entries), as
// rtable.Set does and for its reason; removal keeps the capacity. Pointers
// into the slab (Find, Put) are valid until the next Put of a new key or
// Delete. Deleting keys[i] moves only what lies behind it: a walk that
// deletes runs over Keys() from the back.
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
			c += max(2, c/4)
			s.keys = append(make([]K, 0, c), s.keys...)
			s.vals = append(make([]V, 0, c), s.vals...)
		}
		s.keys, s.vals = slices.Insert(s.keys, i, k), slices.Insert(s.vals, i, v)
	}
	s.vals[i] = v
	return &s.vals[i]
}

// Delete removes k and reports whether it was held.
func (s *Keyed[K, V]) Delete(k K) bool {
	i, ok := slices.BinarySearch(s.keys, k)
	if ok {
		s.keys, s.vals = slices.Delete(s.keys, i, i+1), slices.Delete(s.vals, i, i+1)
	}
	return ok
}

// MemBytes reports the heap behind the set: capacity × element size.
func (s *Keyed[K, V]) MemBytes() int {
	var k K
	var v V
	return cap(s.keys)*int(unsafe.Sizeof(k)) + cap(s.vals)*int(unsafe.Sizeof(v))
}
