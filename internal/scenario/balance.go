package scenario

import (
	"fmt"
	"sort"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/simrt"
)

// balance.go holds the load-balance observability plane: per-node
// message-load measurement (the p50/p99/max the EXPERIMENTS.md tables
// report) and the two runtime invariant checkers that make hotspots a
// test failure instead of a graph to eyeball.

// LoadStats summarises per-node message-load deltas over one window.
type LoadStats struct {
	Nodes int
	Mean  float64
	P50   uint64
	P99   uint64
	Max   uint64
}

// String formats the stats for logs and experiment tables.
func (s LoadStats) String() string {
	return fmt.Sprintf("nodes=%d mean=%.1f p50=%d p99=%d max=%d", s.Nodes, s.Mean, s.P50, s.P99, s.Max)
}

// SnapshotLoad captures every node's cumulative message count (in plus
// out). Diff two snapshots with LoadDeltas to get per-window loads.
func SnapshotLoad(c *simrt.Cluster) map[uint64]uint64 {
	out := make(map[uint64]uint64, len(c.Nodes))
	for _, n := range c.Nodes {
		out[n.Addr()] = n.Stats.MsgsIn + n.Stats.MsgsOut
	}
	return out
}

// LoadDeltas returns the per-node message-count growth since prev for
// every currently live node that prev covered, ordered by node ID
// (deterministic). Nodes that joined after prev are skipped — their
// window is shorter and would read as artificially idle.
func LoadDeltas(c *simrt.Cluster, prev map[uint64]uint64) []uint64 {
	nodes := append([]*core.Node(nil), c.AliveNodes()...)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID() < nodes[j].ID() })
	out := make([]uint64, 0, len(nodes))
	for _, n := range nodes {
		base, ok := prev[n.Addr()]
		if !ok {
			continue
		}
		cur := n.Stats.MsgsIn + n.Stats.MsgsOut
		if cur >= base {
			out = append(out, cur-base)
		}
	}
	return out
}

// LoadPercentiles computes the window summary over a delta slice.
func LoadPercentiles(deltas []uint64) LoadStats {
	if len(deltas) == 0 {
		return LoadStats{}
	}
	sorted := append([]uint64(nil), deltas...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum uint64
	for _, d := range sorted {
		sum += d
	}
	pct := func(p float64) uint64 {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return LoadStats{
		Nodes: len(sorted),
		Mean:  float64(sum) / float64(len(sorted)),
		P50:   pct(0.50),
		P99:   pct(0.99),
		Max:   sorted[len(sorted)-1],
	}
}

// StaticHops walks the greedy (G) forwarding decision from each origin
// toward each target over the current routing tables — no time advances,
// no messages are sent — and returns the mean number of forwarding steps
// over the walks that delivered, plus how many of the origin×target walks
// that was. The runtime hops counter (LookupsForwarded/LookupsStarted)
// is confounded by the lookup MIX: a cache layer absorbs exactly the
// hot-key lookups, so the surviving lookups are the cold Zipf tail with
// its own path-length distribution. This walk asks the mix-controlled
// question — for the SAME origin/target pairs, did the balancer's routing
// bias stretch paths?
//
// Only delivered walks are samples: one that cycles, exhausts the TTL or
// hits a dead next hop is a loop-freedom or liveness matter with its own
// checker, not a path length.
func StaticHops(c *simrt.Cluster, origins []*core.Node, targets []idspace.ID) (mean float64, delivered int) {
	x := NewCtx(c)
	sum := 0
	for _, origin := range origins {
		for _, target := range targets {
			if hops, _, end := x.walk(origin, target); end == walkDelivered {
				sum += hops
				delivered++
			}
		}
	}
	if delivered == 0 {
		return 0, 0
	}
	return float64(sum) / float64(delivered), delivered
}

// --- invariant checkers -----------------------------------------------------

// BalanceCheckers returns the two load-balance invariants with the
// default bounds the balancer is expected to hold. They are not part of
// AllCheckers: pre-balancer timelines (and deliberately unbalanced
// ablation runs) would trip them by design.
func BalanceCheckers() []Checker {
	return []Checker{LoadSpread(8, 40), ChildBalance(3, 2)}
}

// LoadSpread checks that no live node's message load over the last
// checking window exceeds bound × the window's mean load. The checker
// keeps the previous pass's counters internally, so the first pass
// only primes the window. Windows whose mean is below minMean messages
// are skipped: ratios over near-idle traffic flag nothing but noise
// (one node answering one lookup during a quiet window is 10× a mean
// of 0.1).
func LoadSpread(bound float64, minMean float64) Checker {
	prev := map[uint64]uint64{}
	return Checker{Name: "load-spread", Check: func(x *Ctx) []Violation {
		alive := x.AliveByID()
		type sample struct {
			addr  uint64
			id    string
			delta uint64
		}
		var samples []sample
		var sum uint64
		for _, n := range alive {
			cur := n.Stats.MsgsIn + n.Stats.MsgsOut
			base, ok := prev[n.Addr()]
			if ok && cur >= base {
				samples = append(samples, sample{n.Addr(), n.ID().String(), cur - base})
				sum += cur - base
			}
			prev[n.Addr()] = cur
		}
		if len(samples) == 0 {
			return nil
		}
		mean := float64(sum) / float64(len(samples))
		if mean < minMean {
			return nil
		}
		limit := bound * mean
		var out []Violation
		for _, s := range samples {
			if float64(s.delta) > limit {
				out = append(out, Violation{
					Checker: "load-spread",
					Detail: fmt.Sprintf("node %s carried %d msgs this window (mean %.1f, bound %.0fx)",
						s.id, s.delta, mean, bound),
				})
			}
		}
		return out
	}}
}

// ChildBalance checks that at every hierarchy level, no parent carries
// more than factor × the median child count of its level (plus slack
// absolute children, so tiny medians do not flag normal variance). A
// violation is the tree-shape hotspot D3-Tree warns about: one node
// parenting a disproportionate share of a level while its peers idle.
func ChildBalance(factor float64, slack int) Checker {
	return Checker{Name: "child-balance", Check: func(x *Ctx) []Violation {
		alive := x.AliveByID()
		// Group live parents by level; alive is ID-sorted so each group
		// keeps a deterministic order.
		counts := map[uint8][]int{}
		for _, n := range alive {
			if c := n.Table().Children.Len(); c > 0 {
				counts[n.MaxLevel()] = append(counts[n.MaxLevel()], c)
			}
		}
		var levels []uint8
		for lvl := range counts {
			levels = append(levels, lvl)
		}
		sort.Slice(levels, func(i, j int) bool { return levels[i] < levels[j] })
		var out []Violation
		for _, lvl := range levels {
			cs := append([]int(nil), counts[lvl]...)
			sort.Ints(cs)
			median := cs[len(cs)/2]
			limit := int(factor*float64(median)) + slack
			for _, n := range alive {
				if n.MaxLevel() != lvl {
					continue
				}
				if c := n.Table().Children.Len(); c > limit {
					out = append(out, Violation{
						Checker: "child-balance",
						Detail: fmt.Sprintf("level-%d node %s parents %d children (median %d, limit %d)",
							lvl, n.ID(), c, median, limit),
					})
				}
			}
		}
		return out
	}}
}
