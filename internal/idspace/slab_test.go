package idspace

import (
	"fmt"
	"math/rand"
	"testing"
)

// slabOps drives a Keyed and a plain map through the same operations, two
// bytes each (operation, key; keys are taken modulo 40, so 0 is one of
// them and a long sequence fills the slab past three growth steps), and
// holds the slab to the map after every one.
//
//	0, 1  Put(k, step)                  2  write through Find's pointer
//	3     Delete(k)                     4  Get(k)
//	5     walk Keys() from the back deleting every key that shares k's remainder modulo 3
func slabOps(t *testing.T, ops []byte) {
	var s Keyed[uint64, int]
	want := map[uint64]int{}
	caps := []int{0}
	for step := 0; step+1 < len(ops); step += 2 {
		op, k := ops[step]%6, uint64(ops[step+1]%40)
		switch op {
		case 0, 1:
			p := s.Put(k, step)
			want[k] = step
			if *p != step || s.Find(k) != p {
				t.Fatalf("step %d: Put(%d) returned %p holding %d; Find says %p", step, k, p, *p, s.Find(k))
			}
		case 2:
			p := s.Find(k)
			if _, held := want[k]; held != (p != nil) {
				t.Fatalf("step %d: Find(%d) = %p, held %v", step, k, p, held)
			}
			if p != nil {
				*p, want[k] = -step, -step
			}
		case 3:
			_, held := want[k]
			delete(want, k)
			if s.Delete(k) != held {
				t.Fatalf("step %d: Delete(%d) reported %v, want %v", step, k, !held, held)
			}
		case 4:
			v, ok := s.Get(k)
			if w, held := want[k]; ok != held || v != w {
				t.Fatalf("step %d: Get(%d) = %d, %v; want %d, %v", step, k, v, ok, w, held)
			}
		case 5:
			before, met := s.Len(), map[uint64]bool{}
			for keys, i := s.Keys(), s.Len()-1; i >= 0; i-- {
				key := keys[i]
				if v := s.Find(key); met[key] || v == nil || *v != want[key] {
					t.Fatalf("step %d: the walk saw %d→%v (want %d, met before %v)", step, key, v, want[key], met[key])
				}
				met[key] = true
				if key%3 == k%3 {
					delete(want, key)
					s.Delete(key)
				}
			}
			if len(met) != before {
				t.Fatalf("step %d: the deleting walk met %d of %d entries", step, len(met), before)
			}
		}
		// The slab holds exactly the map: same size, every key once and in
		// ascending order, each value beside its key.
		if s.Len() != len(want) || len(s.Keys()) != len(want) {
			t.Fatalf("step %d: Len %d, %d keys, want %d", step, s.Len(), len(s.Keys()), len(want))
		}
		for i, key := range s.Keys() {
			v := s.Find(key)
			if w, held := want[key]; !held || v != &s.vals[i] || *v != w || (i > 0 && s.keys[i-1] >= key) {
				t.Fatalf("step %d: entry %d is %d→%v after key %v (held %v, want %d)", step, i, key, v, s.keys[:i], held, w)
			}
		}
		// Keys and values grow together, a quarter at a time, and never shrink.
		if cap(s.keys) != cap(s.vals) || s.MemBytes() != cap(s.keys)*16 {
			t.Fatalf("step %d: caps %d/%d, MemBytes %d", step, cap(s.keys), cap(s.vals), s.MemBytes())
		}
		if c := cap(s.keys); c != caps[len(caps)-1] {
			if prev := caps[len(caps)-1]; c != prev+max(2, prev/4) {
				t.Fatalf("step %d: capacity went %d → %d", step, prev, c)
			}
			caps = append(caps, c)
		}
	}
}

// slabGrowOps fills the slab to n keys (n <= 40), thins it with a deleting
// walk, refills it, and empties it key by key.
func slabGrowOps(n int) []byte {
	var ops []byte
	for k := 0; k < n; k++ {
		ops = append(ops, 0, byte(k), 2, byte(k))
	}
	ops = append(ops, 5, 1, 4, 0, 4, 1)
	for k := n - 1; k >= 0; k-- {
		ops = append(ops, 1, byte(k))
	}
	for k := 0; k < n; k++ {
		ops = append(ops, 3, byte(k), 3, byte(k))
	}
	return ops
}

func TestSlabAgainstMap(t *testing.T) {
	slabOps(t, slabGrowOps(40))
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		ops := make([]byte, 600)
		rng.Read(ops)
		slabOps(t, ops)
	}
}

// TestSlabGrowth: from empty, by a quarter and at least two; a removal
// keeps the capacity and frees what the value pointed to.
func TestSlabGrowth(t *testing.T) {
	var s Keyed[uint8, *int]
	if s.MemBytes() != 0 || s.Len() != 0 || s.Find(0) != nil {
		t.Fatalf("the zero slab holds %d B, %d entries", s.MemBytes(), s.Len())
	}
	var caps []int
	for k := 0; k < 30; k++ {
		s.Put(uint8(k*7%30), new(int)) // not in key order: inserts shift
		if len(caps) == 0 || caps[len(caps)-1] != cap(s.keys) {
			caps = append(caps, cap(s.keys))
		}
	}
	if got, want := fmt.Sprint(caps), "[2 4 6 8 10 12 15 18 22 27 33]"; got != want {
		t.Fatalf("growth steps %s, want %s", got, want)
	}
	if s.MemBytes() != 33*(1+8) {
		t.Fatalf("MemBytes %d for 33 slots of a byte and a pointer", s.MemBytes())
	}
	for k := 0; k < 30; k++ {
		s.Delete(uint8(k))
	}
	if s.Len() != 0 || cap(s.keys) != 33 {
		t.Fatalf("30 removals left %d entries in %d slots, want 0 in 33", s.Len(), cap(s.keys))
	}
	for i, p := range s.vals[:30] {
		if p != nil {
			t.Fatalf("slot %d still points at a removed value", i)
		}
	}
}

// FuzzSlabEquivalence lets the fuzzer search for a sequence on which the
// slab and the map part ways.
func FuzzSlabEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 0, 3, 0, 4, 0, 5, 1})
	f.Add(slabGrowOps(40))
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 3; i++ {
		ops := make([]byte, 200)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(slabOps)
}
