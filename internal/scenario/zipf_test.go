package scenario

import (
	"math/rand"
	"testing"
)

// zipf_test.go holds the Zipf sampler to its distribution and its edge
// cases.

// TestZipfRankDistribution checks the sampler against the analytic
// Zipf(1.0) mass function: rank r's expected share of draws is
// 1/((r+1)·H_n).
func TestZipfRankDistribution(t *testing.T) {
	const n, draws = 100, 200000
	z := NewZipf(n, 1.0)
	if z.N() != n {
		t.Fatalf("N() = %d, want %d", z.N(), n)
	}
	rng := rand.New(rand.NewSource(42))
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[z.Rank(rng.Float64())]++
	}
	var h float64
	for i := 1; i <= n; i++ {
		h += 1 / float64(i)
	}
	for _, r := range []int{0, 1, 2, 9} {
		want := float64(draws) / (float64(r+1) * h)
		got := float64(counts[r])
		if got < 0.9*want || got > 1.1*want {
			t.Errorf("rank %d drawn %d times, want %.0f ±10%%", r, counts[r], want)
		}
	}
	if !(counts[0] > counts[9] && counts[9] > counts[99]) {
		t.Errorf("head/tail ordering violated: counts[0]=%d counts[9]=%d counts[99]=%d",
			counts[0], counts[9], counts[99])
	}
}

// TestZipfSamplerEdgeCases pins the clamping rules: degenerate n and
// theta fall back to a single rank / the canonical exponent, and the
// extremes of the uniform input map to the first and last rank.
func TestZipfSamplerEdgeCases(t *testing.T) {
	z := NewZipf(0, -1)
	if z.N() != 1 || z.Rank(0) != 0 || z.Rank(0.999999) != 0 {
		t.Fatalf("degenerate sampler: N=%d Rank(0)=%d Rank(~1)=%d", z.N(), z.Rank(0), z.Rank(0.999999))
	}
	z = NewZipf(8, 1.0)
	if z.Rank(0) != 0 {
		t.Errorf("Rank(0) = %d, want 0", z.Rank(0))
	}
	if got := z.Rank(0.9999999); got != 7 {
		t.Errorf("Rank(~1) = %d, want 7", got)
	}
}
