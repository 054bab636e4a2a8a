package experiment

import (
	"math"
	"reflect"
	"testing"
	"time"

	"treep/internal/proto"
	"treep/internal/scenario"
)

// TestHarnessGolden pins what the harness measures: a kill sweep, a
// scenario run, the comparative records and the AN-1/2/3 rows, each
// folded into one word. The constants were recorded at c9ec18f, when the
// kill sweep and the scenario run were two runners with two option
// structs; they hold unchanged through their merge. The hop percentiles
// fold into words of their own, so a change to the percentile rule moves
// those and nothing else.
//
// Re-recorded since: wantComparePct, when Histogram.Percentile became the
// nearest rank (⌈p·total⌉, was ⌊p·total⌋), which can only raise a
// hop_p50 or hop_p99. AN-3's p95 held at both sizes. All six, when the
// routing decision began with the owner check (a key lookup stops at a
// node that knows nobody nearer), which moves every lookup trajectory;
// the first four again when forwards began to be held in the older half
// of a keep-alive round and the origin's re-issue always (more hop acks,
// fewer re-issues under churn). The hop percentiles came back to the
// values they had before the owner check. The first five again when a
// parent began to split only the level whose children exceed nc, and to
// keep its neighbours' children from every bus it holds (the tree stops
// growing a bus of roots); AN-3's p95 held. The first four again when a
// failover began to name the silent peer in the request it re-routes, so
// the hops after it route around that peer too (fewer failovers and
// re-issues under churn); the AN rows held. The first three again when a
// failover began to route around a silent peer after one round-trip bound
// and to exclude it after two (walks re-routed one bound sooner,
// fewer failovers under churn); the AN rows and the hop percentiles held.
// The same change also stopped a node adopting itself as parent from a
// stale claim, which alone moves none of the six. All six when each peer's
// keep-alive and child-report rounds began at a phase of its own instead
// of all at one instant.
func TestHarnessGolden(t *testing.T) {
	const (
		wantSweep      = 0xf31ed0cf063de644
		wantScenario   = 0x7b172259abe09459
		wantCompare    = 0x2ec75a20e6a01802
		wantComparePct = 0xbe6b831821397308
		wantAnalysis   = 0x8fa0631aec1d02d2
		wantAnalysisPc = 0x08395507b4f137f2
	)
	algos := []proto.Algo{proto.AlgoG, proto.AlgoNG, proto.AlgoNGSA}

	sweep := newFold()
	res := Run(Options{
		N: 150, Seeds: []int64{1, 2}, Phases: KillSweep(10, 50, 3*time.Second),
		WarmUp: 6 * time.Second, Lookups: 40,
	})
	for _, tr := range res.Trials {
		sweep.add(uint64(tr.Seed), uint64(len(tr.Steps)))
		for _, st := range tr.Steps {
			sweep.add(uint64(st.KillPct), uint64(st.Alive), uint64(st.Partitions))
			for _, algo := range algos {
				sweep.algoStep(st.PerAlgo[algo])
			}
		}
	}

	scen := newFold()
	sres := Run(Options{
		N: 150, Seeds: []int64{1, 2}, Algos: []proto.Algo{proto.AlgoG},
		Phases: []scenario.Phase{
			scenario.Churn{For: 10 * time.Second, JoinRate: 2, LeaveRate: 2},
			scenario.Settle{For: 12 * time.Second},
		},
		Checkers: scenario.AllCheckers(), Lookups: 30,
	})
	for _, tr := range sres.Trials {
		scen.add(uint64(tr.Seed), uint64(len(tr.Steps)))
		for _, st := range tr.Steps {
			scen.str(st.Phase)
			scen.add(uint64(st.Alive), uint64(st.Violations))
			scen.algoStep(st.PerAlgo[proto.AlgoG])
		}
		scen.add(tr.Result.Events, uint64(tr.Result.Joins), uint64(tr.Result.Leaves))
	}

	cmp, cmpPct := newFold(), newFold()
	cres, err := RunCompare(compareOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range cres.Records {
		cmp.fields(r, &cmpPct, "HopP50", "HopP99")
	}

	an, anPct := newFold(), newFold()
	for _, p := range HeightLaw([]int{64, 256}, 1) {
		an.fields(p, nil)
	}
	for _, r := range TableSizes(150, 1) {
		an.fields(r, nil)
	}
	for _, p := range LogNHops([]int{100, 200}, 1, 40) {
		an.fields(p, &anPct, "P95Hops")
	}

	for _, g := range []struct {
		name      string
		got, want fold
	}{
		{"kill sweep", sweep, wantSweep},
		{"scenario run", scen, wantScenario},
		{"compare records", cmp, wantCompare},
		{"compare hop percentiles", cmpPct, wantComparePct},
		{"AN-1/2/3 rows", an, wantAnalysis},
		{"AN-3 p95", anPct, wantAnalysisPc},
	} {
		if g.got != g.want {
			t.Errorf("%s: got %#x, want %#x", g.name, uint64(g.got), uint64(g.want))
		}
	}
}

// fold is FNV-1a over 64-bit words, the recipe of the overlay golden.
type fold uint64

func newFold() fold { return 14695981039346656037 }

func (h *fold) add(vs ...uint64) {
	for _, v := range vs {
		*h = (*h ^ fold(v)) * 1099511628211
	}
}

func (h *fold) str(s string) {
	h.add(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h.add(uint64(s[i]))
	}
}

// algoStep folds one algorithm's tallies and its whole hop histogram.
func (h *fold) algoStep(a *AlgoStep) {
	h.add(uint64(a.Found), uint64(a.NotFound), uint64(a.Timeout))
	h.hist(a.Hops)
}

func (h *fold) hist(x *Histogram) {
	h.add(x.Total())
	for v, seen := 0, uint64(0); seen < x.Total(); v++ {
		c := x.Count(v)
		h.add(c)
		seen += c
	}
}

// fields folds every field of a struct in declaration order; the fields
// named in split fold into *other instead.
func (h *fold) fields(v any, other *fold, split ...string) {
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		dst := h
		for _, name := range split {
			if rv.Type().Field(i).Name == name {
				dst = other
			}
		}
		dst.value(rv.Field(i))
	}
}

func (h *fold) value(v reflect.Value) {
	switch v.Kind() {
	case reflect.String:
		h.str(v.String())
	case reflect.Int, reflect.Int64:
		h.add(uint64(v.Int()))
	case reflect.Uint64:
		h.add(v.Uint())
	case reflect.Float64:
		h.add(math.Float64bits(v.Float()))
	case reflect.Slice:
		h.add(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			h.value(v.Index(i))
		}
	default:
		panic("golden fold: unhandled kind " + v.Kind().String())
	}
}
