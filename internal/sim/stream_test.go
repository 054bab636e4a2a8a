package sim

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"
)

// FuzzStreamMatchesMathRand drives rand.New(rand.NewSource(seed)) and a
// compact stream through the same calls, one byte each, and requires every
// output to match. The committed seeds cross draw rngTap (where the stream
// builds its register) and draw rngLen (where the register wraps).
func FuzzStreamMatchesMathRand(f *testing.F) {
	long := make([]byte, 64)
	for i := range long {
		long[i] = byte(i*37 + 8) // every call, Perm and Shuffle up to 256 long among them
	}
	for _, seed := range []int64{0, -1, math.MaxInt32, -math.MaxInt32, 89482311, 1 << 62} {
		f.Add(seed, long)
		f.Add(seed, []byte{0, 1, 4, 5, 6, 7, 2, 3})
	}
	f.Add(int64(7), append([]byte{248, 248, 248, 9}, long...)) // three Perm(249), then Seed
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 256 { // far past draw rngLen already; longer inputs only slow the fuzzer
			ops = ops[:256]
		}
		want, got := rand.New(rand.NewSource(seed)), NewRand(seed)
		for i, b := range ops {
			n := int(b) + 1
			var w, g uint64
			switch b % 10 {
			case 0:
				w, g = want.Uint64(), got.Uint64()
			case 1:
				w, g = uint64(want.Int63()), uint64(got.Int63())
			case 2:
				m := 1 + int64(n)<<(b%48)
				w, g = uint64(want.Int63n(m)), uint64(got.Int63n(m))
			case 3:
				m := 1 + n<<(b%32)
				w, g = uint64(want.Intn(m)), uint64(got.Intn(m))
			case 4:
				w, g = math.Float64bits(want.Float64()), math.Float64bits(got.Float64())
			case 5:
				w, g = math.Float64bits(want.ExpFloat64()), math.Float64bits(got.ExpFloat64())
			case 6:
				w, g = math.Float64bits(want.NormFloat64()), math.Float64bits(got.NormFloat64())
			case 7:
				a, b := want.Perm(n), got.Perm(n)
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("op %d: Perm(%d)[%d] = %d, want %d", i, n, j, b[j], a[j])
					}
				}
			case 8:
				a, b := make([]int, n), make([]int, n)
				for j := range a {
					a[j], b[j] = j, j
				}
				want.Shuffle(n, func(x, y int) { a[x], a[y] = a[y], a[x] })
				got.Shuffle(n, func(x, y int) { b[x], b[y] = b[y], b[x] })
				for j := range a {
					if a[j] != b[j] {
						t.Fatalf("op %d: Shuffle(%d)[%d] = %d, want %d", i, n, j, b[j], a[j])
					}
				}
			case 9:
				s := seed ^ int64(n)<<(i%56)
				want.Seed(s)
				got.Seed(s)
			}
			if w != g {
				t.Fatalf("op %d (byte %d) after seed %d: got %#x, want %#x", i, b, seed, g, w)
			}
		}
	})
}

// A fresh stream's first rngTap draws allocate nothing and leave it
// without a register; the next draw builds one, and the kernel counts it.
func TestStreamDrawsLazilyUntilTheTap(t *testing.T) {
	k := New(3)
	fresh := make([]*stream, 12)
	for i := range fresh {
		k.Stream(uint64(i))
		fresh[i] = k.streams[uint64(i)]
	}
	next := 0
	allocs := testing.AllocsPerRun(len(fresh)-1, func() {
		s := fresh[next]
		next++
		for range rngTap {
			s.r.Uint64()
		}
	})
	if allocs != 0 {
		t.Fatalf("draws 0…%d of a fresh stream allocate %.1f times", rngTap-1, allocs)
	}
	s := fresh[0]
	if s.reg != nil {
		t.Fatal("the register exists before draw rngTap")
	}
	if _, bytes := k.MemBytes(); bytes != len(fresh)*int(unsafe.Sizeof(stream{})) || unsafe.Sizeof(stream{}) != 64 {
		t.Fatalf("%d streams without registers: MemBytes %d, %d bytes each", len(fresh), bytes, unsafe.Sizeof(stream{}))
	}
	s.r.Uint64()
	if s.reg == nil {
		t.Fatal("draw rngTap did not build the register")
	}
	if _, bytes := k.MemBytes(); bytes != len(fresh)*int(unsafe.Sizeof(stream{}))+int(unsafe.Sizeof([rngLen]uint64{})) {
		t.Fatalf("one register built: MemBytes %d", bytes)
	}
}
