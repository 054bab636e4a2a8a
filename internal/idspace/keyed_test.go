package idspace

import (
	"math/rand"
	"slices"
	"testing"
)

// TestKeyedAgainstMap drives random puts and deletes over a small key
// range and holds the set to a plain map: same contents, key order
// ascending without duplicates, Len and the key order the same size.
func TestKeyedAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, want := Keyed[ID, int]{}, map[ID]int{}
	for step := 0; step < 4000; step++ {
		k := ID(rng.Intn(64))
		if rng.Intn(3) == 0 {
			_, held := want[k]
			delete(want, k)
			if s.Delete(k) != held {
				t.Fatalf("step %d: Delete(%v) reported %v, want %v", step, k, !held, held)
			}
		} else {
			want[k] = step
			s.Put(k, step)
		}
		if s.Len() != len(want) || len(s.Keys()) != len(want) {
			t.Fatalf("step %d: Len %d, order %d, want %d", step, s.Len(), len(s.Keys()), len(want))
		}
		if !slices.IsSorted(s.Keys()) {
			t.Fatalf("step %d: key order %v is not ascending", step, s.Keys())
		}
		for _, k := range s.Keys() {
			if v, ok := s.Get(k); !ok || v != want[k] {
				t.Fatalf("step %d: Get(%v) = %d, %v; want %d", step, k, v, ok, want[k])
			}
		}
	}
	if _, ok := s.Get(1000); ok {
		t.Fatal("Get of a key never put reports a value")
	}
}
