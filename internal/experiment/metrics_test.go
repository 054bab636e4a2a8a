package experiment

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := &Histogram{}
	if h.Total() != 0 || h.Mean() != 0 || h.Percentile(0.5) != 0 {
		t.Fatal("empty histogram invariants")
	}
	for _, v := range []int{1, 2, 2, 3, 3, 3} {
		h.Observe(v)
	}
	if h.Total() != 6 || h.Count(2) != 2 || h.Count(3) != 3 || h.Count(9) != 0 {
		t.Fatalf("counts wrong: %+v", h)
	}
	if mean := h.Mean(); mean < 2.3 || mean > 2.4 {
		t.Fatalf("mean %v", mean)
	}
	if h.Percentile(0.5) != 2 || h.Percentile(1) != 3 {
		t.Fatalf("percentiles %d %d", h.Percentile(0.5), h.Percentile(1))
	}
	if h.Fraction(3) != 0.5 {
		t.Fatalf("fraction %v", h.Fraction(3))
	}
	h.Observe(-5) // clamps to 0
	if h.Count(0) != 1 {
		t.Fatal("negative clamp")
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	a.Observe(1)
	b.Observe(5)
	b.Observe(1)
	a.Merge(b)
	if a.Total() != 3 || a.Count(1) != 2 || a.Count(5) != 1 {
		t.Fatalf("merge: %+v", a)
	}
}

// TestHistogramPercentileProperty: Percentile is the nearest rank. It is
// monotone in p, always an observed value, the minimum at p=0 and the
// maximum at p=1. A ⌊p·total⌋ rank fails it: p50 of {1,2,3} comes out 1
// and p0 of anything 0.
func TestHistogramPercentileProperty(t *testing.T) {
	prop := func(raw []uint8) bool {
		h := &Histogram{}
		lo, hi := 32, -1
		for _, v := range raw {
			h.Observe(int(v) % 32)
			lo, hi = min(lo, int(v)%32), max(hi, int(v)%32)
		}
		if h.Total() == 0 {
			return true
		}
		prev := -1
		for _, p := range []float64{0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1} {
			v := h.Percentile(p)
			if v < prev || h.Count(v) == 0 {
				return false
			}
			prev = v
		}
		return h.Percentile(0) == lo && h.Percentile(1) == hi
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
	for _, c := range []struct {
		obs  []int
		p    float64
		want int
	}{
		{[]int{1, 2, 3}, 0.5, 2},
		{[]int{3}, 0, 3},
		{[]int{1, 2, 3, 4}, 0.5, 2},
		{[]int{1, 2, 3, 4}, 0.51, 3},
	} {
		h := &Histogram{}
		for _, v := range c.obs {
			h.Observe(v)
		}
		if got := h.Percentile(c.p); got != c.want {
			t.Errorf("p%v of %v = %d, want %d", c.p*100, c.obs, got, c.want)
		}
	}
}

func TestSurface(t *testing.T) {
	s := NewSurface()
	s.At(10).Observe(5)
	s.At(10).Observe(5)
	s.At(30).Observe(7)
	if got := s.KillPcts(); len(got) != 2 || got[0] != 10 || got[1] != 30 {
		t.Fatalf("kill pcts %v", got)
	}
	if s.At(10).Fraction(5) != 1 {
		t.Fatal("fraction at 10%")
	}
	out := s.Render(8)
	if !strings.Contains(out, "kill%") || !strings.Contains(out, "100.0") {
		t.Fatalf("render:\n%s", out)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	if uf.sets != 5 {
		t.Fatal("initial sets")
	}
	if !uf.union(0, 1) || uf.union(0, 1) {
		t.Fatal("union semantics")
	}
	uf.union(2, 3)
	if uf.sets != 3 {
		t.Fatalf("sets %d", uf.sets)
	}
	if uf.find(0) != uf.find(1) || uf.find(0) == uf.find(2) {
		t.Fatal("find")
	}
	uf.union(1, 3)
	if uf.sets != 2 || uf.find(0) != uf.find(2) {
		t.Fatal("transitive union")
	}
}

func TestUnionFindRandomProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 64
	uf := newUnionFind(n)
	// Reference components via adjacency + flood fill.
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < 100; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		uf.union(a, b)
		adj[a][b], adj[b][a] = true, true
	}
	// Count components by DFS.
	seen := make([]bool, n)
	comps := 0
	var dfs func(int)
	dfs = func(v int) {
		seen[v] = true
		for w, ok := range adj[v] {
			if ok && !seen[w] {
				dfs(w)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			comps++
			dfs(v)
		}
	}
	if uf.sets != comps {
		t.Fatalf("union-find %d vs dfs %d", uf.sets, comps)
	}
}

func TestSeriesAndTable(t *testing.T) {
	s := &Series{Name: "G", Y: []float64{0.5, 0.7}}
	tbl := Table("kill%", []float64{10, 20}, []*Series{s})
	if !strings.Contains(tbl, "kill%\tG") || !strings.Contains(tbl, "10\t0.50") {
		t.Fatalf("table:\n%s", tbl)
	}
}
