package idspace

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func TestDist(t *testing.T) {
	cases := []struct {
		a, b ID
		want uint64
	}{
		{0, 0, 0},
		{0, 1, 1},
		{1, 0, 1},
		{MaxID, 0, uint64(MaxID)},
		{0, MaxID, uint64(MaxID)},
		{100, 250, 150},
		{MaxID, MaxID, 0},
	}
	for _, c := range cases {
		if got := Dist(c.a, c.b); got != c.want {
			t.Errorf("Dist(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestDistProperties(t *testing.T) {
	symmetric := func(a, b uint64) bool {
		return Dist(ID(a), ID(b)) == Dist(ID(b), ID(a))
	}
	if err := quick.Check(symmetric, nil); err != nil {
		t.Errorf("symmetry: %v", err)
	}
	identity := func(a uint64) bool { return Dist(ID(a), ID(a)) == 0 }
	if err := quick.Check(identity, nil); err != nil {
		t.Errorf("identity: %v", err)
	}
	triangle := func(a, b, c uint64) bool {
		ab := Dist(ID(a), ID(b))
		bc := Dist(ID(b), ID(c))
		ac := Dist(ID(a), ID(c))
		// uint64 sums can overflow; compare in big-ish space via float is
		// lossy, so use the fact that ab+bc overflowing means it certainly
		// exceeds ac.
		sum := ab + bc
		if sum < ab { // overflow
			return true
		}
		return ac <= sum
	}
	if err := quick.Check(triangle, nil); err != nil {
		t.Errorf("triangle inequality: %v", err)
	}
}

func TestMid(t *testing.T) {
	cases := []struct {
		a, b, want ID
	}{
		{0, 0, 0},
		{0, 2, 1},
		{2, 0, 1},
		{0, MaxID, MaxID / 2},
		{MaxID - 1, MaxID, MaxID - 1},
		{10, 11, 10},
	}
	for _, c := range cases {
		if got := Mid(c.a, c.b); got != c.want {
			t.Errorf("Mid(%v,%v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
	noOverflow := func(a, b uint64) bool {
		m := Mid(ID(a), ID(b))
		lo, hi := ID(a), ID(b)
		if lo > hi {
			lo, hi = hi, lo
		}
		return m >= lo && m <= hi
	}
	if err := quick.Check(noOverflow, nil); err != nil {
		t.Errorf("midpoint bounds: %v", err)
	}
}

func TestFromFractionAndBack(t *testing.T) {
	if FromFraction(-0.5) != 0 {
		t.Error("negative fraction should clamp to 0")
	}
	if FromFraction(2) != MaxID {
		t.Error("fraction > 1 should clamp to MaxID")
	}
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 0.999} {
		id := FromFraction(f)
		got := float64(id) / SpaceExtent
		if diff := got - f; diff > 1e-9 || diff < -1e-9 {
			t.Errorf("roundtrip fraction %v -> %v", f, got)
		}
	}
}

func TestHashAddrDeterministicAndDispersed(t *testing.T) {
	a := HashAddr("10.0.0.1:4000")
	b := HashAddr("10.0.0.1:4000")
	if a != b {
		t.Fatal("HashAddr not deterministic")
	}
	if HashAddr("10.0.0.1:4000") == HashAddr("10.0.0.1:4001") {
		t.Error("adjacent addresses should not collide")
	}
	if HashKey([]byte("k1")) == HashKey([]byte("k2")) {
		t.Error("distinct keys should not collide")
	}
}

func TestBalancedAssignerSpread(t *testing.T) {
	n := 64
	a := BalancedAssigner{}
	prev := ID(0)
	for i := 0; i < n; i++ {
		id := a.Assign(i, n)
		if i > 0 && id <= prev {
			t.Fatalf("balanced IDs must be strictly increasing: i=%d %v <= %v", i, id, prev)
		}
		prev = id
	}
	// The first node should sit near 1/(2n) of the space.
	first := float64(a.Assign(0, n)) / SpaceExtent
	want := 1.0 / float64(2*n)
	if diff := first - want; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("first balanced ID at fraction %v, want ~%v", first, want)
	}
	if (BalancedAssigner{}).Assign(0, 0) != 0 {
		t.Error("n=0 should yield 0")
	}
}

// TestPhaseSpreadsEvenlySpacedIDs: a thousand IDs a bulk build would space
// evenly get phases inside (0, period] that fill its ten deciles alike, to
// within three standard deviations of a uniform draw (100 ± 30).
func TestPhaseSpreadsEvenlySpacedIDs(t *testing.T) {
	const n, period = 1000, 2 * time.Second
	var deciles [10]int
	for i := 0; i < n; i++ {
		id := BalancedAssigner{}.Assign(i, n)
		p := Phase(id, period)
		if p <= 0 || p > period || p != Phase(id, period) {
			t.Fatalf("Phase(%v) = %v, want a fixed point of (0, %v]", id, p, period)
		}
		deciles[(p-1)*10/period]++
	}
	for d, k := range deciles {
		if k < 70 || k > 130 {
			t.Fatalf("decile %d holds %d of %d phases: %v", d, k, n, deciles)
		}
	}
}

func TestBalancedAssignerJitterStaysOrdered(t *testing.T) {
	n := 256
	a := BalancedAssigner{Rand: rand.New(rand.NewSource(3)), JitterFrac: 0.5}
	prev := ID(0)
	for i := 0; i < n; i++ {
		id := a.Assign(i, n)
		if i > 0 && id <= prev {
			t.Fatalf("jittered balanced IDs should keep order at jitter 0.5: i=%d", i)
		}
		prev = id
	}
}

func TestNearestIndex(t *testing.T) {
	ids := []ID{10, 20, 30, 40}
	cases := []struct {
		x    ID
		want int
	}{
		{0, 0}, {10, 0}, {14, 0},
		{15, 0}, // tie 10 vs 20 resolves low
		{16, 1}, {20, 1},
		{29, 2}, {35, 2}, // tie 30 vs 40 resolves low
		{36, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := NearestIndex(ids, c.x); got != c.want {
			t.Errorf("NearestIndex(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestNearestIndexPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on empty slice")
		}
	}()
	NearestIndex(nil, 0)
}

func TestNearestIndexIsNearest(t *testing.T) {
	prop := func(raw []uint64, x uint64) bool {
		if len(raw) == 0 {
			return true
		}
		ids := make([]ID, len(raw))
		for i, r := range raw {
			ids[i] = ID(r)
		}
		slices.Sort(ids)
		ids = slices.Compact(ids)
		got := NearestIndex(ids, ID(x))
		best := Dist(ids[got], ID(x))
		for _, id := range ids {
			if Dist(id, ID(x)) < best {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestIDString(t *testing.T) {
	if got := ID(0xff).String(); got != "00000000000000ff" {
		t.Errorf("String = %q", got)
	}
}
