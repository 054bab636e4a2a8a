package idspace

import "sort"

// Keyed is a map from ID that also keeps its keys in ascending order: the
// map serves point lookups, the slice gives a deterministic iteration
// order and a rank (the simulator's reproducibility forbids ranging over
// a map). Build one with NewKeyed.
type Keyed[V any] struct {
	m    map[ID]V
	keys []ID
}

// NewKeyed returns an empty set.
func NewKeyed[V any]() Keyed[V] { return Keyed[V]{m: map[ID]V{}} }

// Len returns the number of keys held.
func (s *Keyed[V]) Len() int { return len(s.keys) }

// Keys returns the keys in ascending order. The slice is the set's own:
// callers must not modify it, and a Delete shifts it in place.
func (s *Keyed[V]) Keys() []ID { return s.keys }

// Get returns the value stored under k.
func (s *Keyed[V]) Get(k ID) (V, bool) {
	v, ok := s.m[k]
	return v, ok
}

// Put stores v under k, replacing any value already there.
func (s *Keyed[V]) Put(k ID, v V) {
	if _, ok := s.m[k]; !ok {
		i := s.rank(k)
		s.keys = append(s.keys, 0)
		copy(s.keys[i+1:], s.keys[i:])
		s.keys[i] = k
	}
	s.m[k] = v
}

// Delete removes k and reports whether it was held.
func (s *Keyed[V]) Delete(k ID) bool {
	if _, ok := s.m[k]; !ok {
		return false
	}
	delete(s.m, k)
	i := s.rank(k)
	s.keys = append(s.keys[:i], s.keys[i+1:]...)
	return true
}

// rank is the index of the first key not below k.
func (s *Keyed[V]) rank(k ID) int {
	return sort.Search(len(s.keys), func(i int) bool { return s.keys[i] >= k })
}
