// Package metrics provides the measurement plumbing for the TreeP
// evaluation: hop histograms (Histogram), the hops×failure surfaces of
// Figures F–I (Surface), min/max envelopes of Figure E (MinMax, Series),
// union-find partition analysis of the live overlay (UnionFind — the
// paper attributes its Figure E spike to the network splitting into
// isolated sub-networks), and the structured per-phase recorder of the
// comparative harness (PhaseRecord, Recorder), which exports CSV and
// JSON artefacts.
package metrics

import (
	"fmt"
	"sort"
	"strings"
)

// Histogram counts occurrences of small non-negative integer values (hop
// counts). The zero value is ready to use.
type Histogram struct {
	counts []uint64
	total  uint64
}

// Observe records one value; negatives are clamped to 0.
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	for len(h.counts) <= v {
		h.counts = append(h.counts, 0)
	}
	h.counts[v]++
	h.total++
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Count returns the observations of value v.
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Mean returns the average observed value (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum uint64
	for v, c := range h.counts {
		sum += uint64(v) * c
	}
	return float64(sum) / float64(h.total)
}

// Percentile returns the smallest value v such that at least p (0..1) of
// the observations are ≤ v.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	need := uint64(p * float64(h.total))
	var acc uint64
	for v, c := range h.counts {
		acc += c
		if acc >= need {
			return v
		}
	}
	return len(h.counts) - 1
}

// Fraction returns the share of observations equal to v.
func (h *Histogram) Fraction(v int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Count(v)) / float64(h.total)
}

// Merge adds all observations of o into h.
func (h *Histogram) Merge(o *Histogram) {
	for v, c := range o.counts {
		for len(h.counts) <= v {
			h.counts = append(h.counts, 0)
		}
		h.counts[v] += c
		h.total += c
	}
}

// Surface is the Figures F–I structure: for each kill percentage (x axis)
// a hop histogram (y axis), rendered as the percentage of requests (z)
// resolved in a given number of hops.
type Surface struct {
	byKill map[int]*Histogram
}

// NewSurface returns an empty surface.
func NewSurface() *Surface { return &Surface{byKill: map[int]*Histogram{}} }

// At returns the histogram for a kill percentage, creating it on demand.
func (s *Surface) At(killPct int) *Histogram {
	h, ok := s.byKill[killPct]
	if !ok {
		h = &Histogram{}
		s.byKill[killPct] = h
	}
	return h
}

// KillPcts returns the recorded kill percentages in ascending order.
func (s *Surface) KillPcts() []int {
	out := make([]int, 0, len(s.byKill))
	for k := range s.byKill {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// Render prints the surface as a table: rows = kill %, columns = hops
// 0..maxHops, cells = % of requests resolved in that many hops.
func (s *Surface) Render(maxHops int) string {
	var b strings.Builder
	b.WriteString("kill%")
	for hop := 0; hop <= maxHops; hop++ {
		fmt.Fprintf(&b, "\t%dh", hop)
	}
	b.WriteString("\n")
	for _, k := range s.KillPcts() {
		h := s.byKill[k]
		fmt.Fprintf(&b, "%d", k)
		for hop := 0; hop <= maxHops; hop++ {
			fmt.Fprintf(&b, "\t%.1f", h.Fraction(hop)*100)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// MinMax tracks an envelope across trials (Figure E).
type MinMax struct {
	min, max float64
	seen     bool
}

// Observe records a value.
func (m *MinMax) Observe(v float64) {
	if !m.seen || v < m.min {
		m.min = v
	}
	if !m.seen || v > m.max {
		m.max = v
	}
	m.seen = true
}

// Min returns the smallest observed value (0 when empty).
func (m *MinMax) Min() float64 { return m.min }

// Max returns the largest observed value (0 when empty).
func (m *MinMax) Max() float64 { return m.max }

// UnionFind is a disjoint-set structure used to count connected components
// of the live overlay's knowledge graph (partition detection).
type UnionFind struct {
	parent []int
	rank   []int
	sets   int
}

// NewUnionFind creates n singleton sets.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int, n), rank: make([]int, n), sets: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set (path compression).
func (u *UnionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets of a and b, reporting whether they were distinct.
func (u *UnionFind) Union(a, b int) bool {
	ra, rb := u.Find(a), u.Find(b)
	if ra == rb {
		return false
	}
	if u.rank[ra] < u.rank[rb] {
		ra, rb = rb, ra
	}
	u.parent[rb] = ra
	if u.rank[ra] == u.rank[rb] {
		u.rank[ra]++
	}
	u.sets--
	return true
}

// Sets returns the number of disjoint sets.
func (u *UnionFind) Sets() int { return u.sets }

// Series is a simple (x, y) sequence for line figures (A–D).
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Add appends one point.
func (s *Series) Add(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Table renders named columns against a shared x axis as a TSV with
// header, used by the bench harness to print paper-figure rows.
func Table(xLabel string, xs []float64, cols []*Series) string {
	var b strings.Builder
	b.WriteString(xLabel)
	for _, c := range cols {
		b.WriteString("\t" + c.Name)
	}
	b.WriteString("\n")
	for i, x := range xs {
		fmt.Fprintf(&b, "%.0f", x)
		for _, c := range cols {
			if i < len(c.Y) {
				fmt.Fprintf(&b, "\t%.2f", c.Y[i])
			} else {
				b.WriteString("\t-")
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
