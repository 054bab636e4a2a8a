package experiment

import (
	"fmt"
	"math"
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

// Percentile returns the nearest-rank p-quantile, p in 0..1: the smallest
// observed value v such that at least ⌈p·total⌉ observations, and at
// least one, are ≤ v. So p=0 is the minimum and p=1 the maximum; an empty
// histogram returns 0.
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	// The 1e-9 keeps a product such as 0.07·100 = 7.000000000000001 from
	// rounding up to the next rank.
	rank := max(1, uint64(math.Ceil(min(max(p, 0), 1)*float64(h.total)-1e-9)))
	var acc uint64
	for v, c := range h.counts {
		acc += c
		if acc >= rank {
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

// unionFind is a disjoint-set structure that counts the connected
// components of the live overlay's knowledge graph (the paper attributes
// its Figure E spike to the network splitting into isolated
// sub-networks).
type unionFind struct {
	parent []int
	rank   []int
	sets   int
}

// newUnionFind creates n singleton sets.
func newUnionFind(n int) *unionFind {
	uf := &unionFind{parent: make([]int, n), rank: make([]int, n), sets: n}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// find returns the representative of x's set (path compression).
func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// union merges the sets of a and b, reporting whether they were distinct.
func (u *unionFind) union(a, b int) bool {
	ra, rb := u.find(a), u.find(b)
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

// Series is one named column of a line figure (A–E): one value per step.
type Series struct {
	Name string
	Y    []float64
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

// PhaseRecord is one backend × trial × phase measurement row of a
// comparative run: the lookup outcome distribution at the phase boundary
// plus the message/byte cost charged to the phase itself (maintenance,
// churn protocol) and to the measurement window.
type PhaseRecord struct {
	// Backend names the protocol ("treep", "chord", "flood").
	Backend string `json:"backend"`
	// Scenario names the phase script the trial played.
	Scenario string `json:"scenario"`
	// Phase names the phase this boundary closed, PhaseIdx its position.
	Phase    string `json:"phase"`
	PhaseIdx int    `json:"phase_idx"`
	// Seed is the trial's seed; identical across backends.
	Seed int64 `json:"seed"`
	// N is the initial population, Alive the live population at the
	// boundary.
	N     int `json:"n"`
	Alive int `json:"alive"`
	// Joins/Leaves/ZoneKilled count membership events injected during the
	// phase.
	Joins      int `json:"joins"`
	Leaves     int `json:"leaves"`
	ZoneKilled int `json:"zone_killed"`
	// Lookups is the number issued at the boundary; Found of them
	// resolved to the exact target.
	Lookups int `json:"lookups"`
	Found   int `json:"found"`
	// FailPct is failures / lookups in percent.
	FailPct float64 `json:"fail_pct"`
	// HopMean/HopP50/HopP99 summarise successful-lookup path lengths.
	HopMean float64 `json:"hop_mean"`
	HopP50  int     `json:"hop_p50"`
	HopP99  int     `json:"hop_p99"`
	// LatencyMeanMs is the mean resolution latency of successful lookups
	// in virtual milliseconds.
	LatencyMeanMs float64 `json:"latency_mean_ms"`
	// MaintMsgs/MaintBytes is the network traffic sent during the phase
	// window (maintenance plus join/leave protocol; no measurement
	// lookups).
	MaintMsgs  uint64 `json:"maint_msgs"`
	MaintBytes uint64 `json:"maint_bytes"`
	// LookupMsgs/LookupBytes is the traffic sent during the measurement
	// window (lookup routing plus the background maintenance that keeps
	// running; the same background applies to every backend).
	LookupMsgs  uint64 `json:"lookup_msgs"`
	LookupBytes uint64 `json:"lookup_bytes"`
	// MsgsPerLookup is LookupMsgs / Lookups (raw window cost).
	MsgsPerLookup float64 `json:"msgs_per_lookup"`
	// PhaseSecs and WindowSecs are the virtual durations of the phase and
	// measurement windows, the denominators for rate corrections.
	PhaseSecs  float64 `json:"phase_secs"`
	WindowSecs float64 `json:"window_secs"`
	// NetMsgsPerLookup estimates the per-lookup routing cost with the
	// phase's maintenance rate subtracted from the measurement window
	// (clamped at zero): (LookupMsgs − MaintMsgs/PhaseSecs·WindowSecs) /
	// Lookups.
	NetMsgsPerLookup float64 `json:"net_msgs_per_lookup"`
	// StateSize is the total routing-state entry count across live nodes;
	// StatePerNode the per-node mean.
	StateSize    int     `json:"state_size"`
	StatePerNode float64 `json:"state_per_node"`
}
