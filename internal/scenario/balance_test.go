package scenario

import (
	"fmt"
	"sort"

	"treep/internal/netsim"
)

// balance_test.go holds the two load-balance invariant checkers, which make a
// hotspot a test failure instead of a graph to eyeball.

// traffic is per-node message load as the network counts it, keyed by
// node address. Its fold method is a netsim.WithTrace hook: a datagram
// counts once for its sender and, unless the network dropped it at the
// send, once for its receiver. The network's second report of a datagram
// that reached a stopped peer counts for nobody. The benchmark's
// core.node_load_* rows fold the same trace (receivers only). fold reads
// each event during the call and keeps no payload, and the counts do not
// depend on the order events come in, so the map is the same at every
// shard count (TestShardStorageEquivalence holds 1 and 2 shards to it).
type traffic map[uint64]uint64

func (t traffic) fold(ev netsim.TraceEvent) {
	if ev.Reason == "dead" {
		return
	}
	t[uint64(ev.From)]++
	if !ev.Dropped {
		t[uint64(ev.To)]++
	}
}

// LoadSpread checks that no live node's message load over the last
// checking window exceeds bound × the window's mean load. It reads load,
// which the cluster's trace hook must fill, and keeps the previous pass's
// counts internally, so the first pass only primes the window. Windows
// whose mean is below minMean messages are skipped: ratios over near-idle
// traffic flag nothing but noise (one node answering one lookup during a
// quiet window is 10× a mean of 0.1). It is not part of AllCheckers: a
// heavy read timeline may show a hotspot without breaking the overlay.
func LoadSpread(load traffic, bound float64, minMean float64) Checker {
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
			cur := load[n.Addr()]
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
