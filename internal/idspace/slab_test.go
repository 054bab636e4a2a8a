package idspace

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"time"
)

// slabSets is how many sets slabOps drives side by side.
const slabSets = 3

// slabOps drives three Keyed sets, each beside a plain map, through one
// stream of operations, two bytes each (operation, key; keys are taken
// modulo 40, so 0 is one of them and a long sequence fills a slab past
// three growth steps), and holds every slab to its map after every one.
// The operation byte modulo 7 is the operation and the byte / 7 picks the
// set, so that the sets take the slabs the others gave back and a slab
// handed on while its old set still reads it shows as a divergence.
//
//	0, 1  Put(k, step)                  2  write through Find's pointer
//	3     Delete(k)                     4  Get(k)
//	5     walk Keys() from the back deleting every key that shares k's remainder modulo 3
//	6     Release()
func slabOps(t *testing.T, ops []byte) {
	var sets [slabSets]Keyed[uint64, int]
	var wants [slabSets]map[uint64]int
	var caps [slabSets]int // the capacity each set last grew to
	for i := range wants {
		wants[i] = map[uint64]int{}
	}
	for step := 0; step+1 < len(ops); step += 2 {
		op, which, k := ops[step]%7, int(ops[step]/7)%slabSets, uint64(ops[step+1]%40)
		s, want := &sets[which], wants[which]
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
		case 6:
			s.Release()
			clear(want)
			if s.Len() != 0 || s.Keys() != nil || s.MemBytes() != 0 {
				t.Fatalf("step %d: Release left %d entries in %d B", step, s.Len(), s.MemBytes())
			}
			caps[which] = 0
		}
		for i := range sets {
			checkSlab(t, step, &sets[i], wants[i], &caps[i])
		}
	}
}

// checkSlab holds s to want: same size, every key once and in ascending
// order, each value beside its key; keys and values grow together, a
// quarter at a time from the capacity last seen, and never shrink.
func checkSlab(t *testing.T, step int, s *Keyed[uint64, int], want map[uint64]int, last *int) {
	t.Helper()
	if s.Len() != len(want) || len(s.Keys()) != len(want) {
		t.Fatalf("step %d: Len %d, %d keys, want %d", step, s.Len(), len(s.Keys()), len(want))
	}
	for i, key := range s.Keys() {
		v := s.Find(key)
		if w, held := want[key]; !held || v != &s.vals[i] || *v != w || (i > 0 && s.keys[i-1] >= key) {
			t.Fatalf("step %d: entry %d is %d→%v after key %v (held %v, want %d)", step, i, key, v, s.keys[:i], held, w)
		}
	}
	if cap(s.keys) != cap(s.vals) || s.MemBytes() != cap(s.keys)*16 {
		t.Fatalf("step %d: caps %d/%d, MemBytes %d", step, cap(s.keys), cap(s.vals), s.MemBytes())
	}
	if c := cap(s.keys); c != *last {
		if c != *last+max(2, *last/4) {
			t.Fatalf("step %d: capacity went %d → %d", step, *last, c)
		}
		*last = c
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

// slabInterleavedOps grows the three sets side by side to n keys each
// (n <= 40), one Put into each in turn with a write through Find after
// it, so that every growth step takes the slabs another set has just
// given back; then releases the second set and refills it while reading
// the first, thins the first with a deleting walk, and releases all three.
func slabInterleavedOps(n int) []byte {
	var ops []byte
	for k := 0; k < n; k++ {
		for set := byte(0); set < slabSets; set++ {
			ops = append(ops, 7*set, byte(k), 7*set+2, byte(k))
		}
	}
	ops = append(ops, 7+6, 0)
	for k := 0; k < n; k++ {
		ops = append(ops, 7, byte(k), 4, byte(k))
	}
	return append(ops, 5, 1, 6, 0, 7+6, 0, 14+6, 0)
}

func TestSlabAgainstMap(t *testing.T) {
	slabOps(t, slabGrowOps(40))
	slabOps(t, slabInterleavedOps(40))
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

// TestFitCap: the slab a drained set moves down to is the least size on
// NextCap's sequence that holds it, pooled up to 63 entries.
func TestFitCap(t *testing.T) {
	seq := []int{0}
	for c := 0; c < 300; {
		c = NextCap(c)
		seq = append(seq, c)
	}
	for n := 0; n <= 300; n++ {
		c := FitCap(n)
		i, on := slices.BinarySearch(seq, c)
		if !on || c < n || (i > 0 && seq[i-1] >= n) {
			t.Fatalf("FitCap(%d) = %d; the sequence reads %v", n, c, seq)
		}
		if _, pooled := slices.BinarySearch(slabCaps[:], c); pooled != (n > 0 && n <= 63) {
			t.Fatalf("FitCap(%d) = %d, pooled %v", n, c, pooled)
		}
	}
}

// TestKeyedEquivalenceShared runs the interleaved sequence on goroutines
// side by side, as the shards of one simulation and the transports of one
// process run: their sets take slabs from the same pools. A set that gives
// its old slab back before copying out of it reads a slab another
// goroutine may be filling, which the race detector reports.
func TestKeyedEquivalenceShared(t *testing.T) {
	for g := range 4 {
		t.Run(fmt.Sprintf("g%d", g), func(t *testing.T) {
			t.Parallel()
			for range 50 {
				slabOps(t, slabInterleavedOps(40))
			}
		})
	}
}

// peerShape is a 32-byte value without pointers, shaped as a node's
// per-peer state is.
type peerShape struct {
	sentAt, claimAt, refusedAt time.Duration
	sent                       uint32
	level                      uint8
	claim, refused             bool
}

// TestKeyedGrowthReusesSlabs pins that growth takes its slabs from the
// pools: with the collector off and the pools warmed by a first fill,
// filling an empty set to 16 entries, through eight slab sizes, allocates
// nothing.
func TestKeyedGrowthReusesSlabs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var s Keyed[uint64, peerShape]
	allocs := testing.AllocsPerRun(20, func() {
		for k := uint64(16); k > 0; k-- {
			s.Put(k*7919, peerShape{sent: uint32(k)})
		}
		s.Release()
	})
	if allocs != 0 {
		t.Fatalf("filling a set to 16 entries allocated %.1f slabs, want 0", allocs)
	}
}

// TestReleaseClearsSlabs: a slab goes back to its pool holding nothing, so
// an idle slab keeps no value alive, and the set is left empty; a removal
// alone keeps the capacity.
func TestReleaseClearsSlabs(t *testing.T) {
	var s Keyed[string, *int]
	for k := range 12 {
		s.Put(fmt.Sprint(k), new(int))
	}
	s.Delete("3")
	keys, vals := s.keys[:cap(s.keys)], s.vals[:cap(s.vals)]
	if len(vals) != 12 {
		t.Fatalf("12 puts and a removal left %d slots, want 12", len(vals))
	}
	s.Release()
	for i := range vals {
		if keys[i] != "" || vals[i] != nil {
			t.Fatalf("slot %d of a released slab still holds %q→%p", i, keys[i], vals[i])
		}
	}
	if s.Len() != 0 || s.Keys() != nil || s.MemBytes() != 0 || s.Find("1") != nil {
		t.Fatalf("a released set holds %d entries in %d B", s.Len(), s.MemBytes())
	}
	s.Put("a", nil)
	if s.Len() != 1 || cap(s.keys) != 2 {
		t.Fatalf("a released set took %d entries in %d slots, want 1 in 2", s.Len(), cap(s.keys))
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
