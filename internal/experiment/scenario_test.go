package experiment

import (
	"testing"
	"time"

	"treep/internal/proto"
	"treep/internal/scenario"
)

func TestRunScenarioShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	res := Run(Options{
		N:     150,
		Seeds: []int64{1, 2},
		Algos: []proto.Algo{proto.AlgoG},
		Phases: []scenario.Phase{
			scenario.Churn{For: 10 * time.Second, JoinRate: 2, LeaveRate: 2},
			scenario.Settle{For: 12 * time.Second},
		},
		Checkers: scenario.AllCheckers(),
		Lookups:  30,
	})
	if len(res.Trials) != 2 {
		t.Fatalf("trials %d", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if len(tr.Steps) != 2 {
			t.Fatalf("steps %d, want 2", len(tr.Steps))
		}
		if tr.Result.Joins == 0 || tr.Result.Leaves == 0 {
			t.Fatalf("seed %d: churn injected nothing (%d joins, %d leaves)",
				tr.Seed, tr.Result.Joins, tr.Result.Leaves)
		}
		final := tr.Steps[len(tr.Steps)-1]
		if final.Phase != "settle" {
			t.Fatalf("final phase %q", final.Phase)
		}
		if final.Violations != 0 {
			t.Fatalf("seed %d: %d invariant violations after settle", tr.Seed, final.Violations)
		}
		a := final.PerAlgo[proto.AlgoG]
		if a == nil || a.Found+a.Failed() != 30 {
			t.Fatalf("seed %d: lookups unaccounted: %+v", tr.Seed, a)
		}
	}
	// Aggregations cover every phase boundary.
	if s := res.FailRateSeries(proto.AlgoG); len(s.Y) != 2 {
		t.Fatalf("fail series %v", s.Y)
	}
	if s := res.ViolationSeries(); len(s.Y) != 2 {
		t.Fatalf("violation series %v", s.Y)
	}
}

func TestRunScenarioDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	opts := Options{
		N:     120,
		Seeds: []int64{7},
		Algos: []proto.Algo{proto.AlgoG},
		Phases: []scenario.Phase{
			scenario.FlashCrowd{Joins: 20, Over: 3 * time.Second},
			scenario.Settle{For: 8 * time.Second},
		},
		Checkers: scenario.AllCheckers(),
		Lookups:  20,
	}
	a, b := Run(opts), Run(opts)
	sa, sb := a.Trials[0].Steps, b.Trials[0].Steps
	for i := range sa {
		ga, gb := sa[i].PerAlgo[proto.AlgoG], sb[i].PerAlgo[proto.AlgoG]
		if sa[i].Alive != sb[i].Alive || ga.Found != gb.Found || ga.Failed() != gb.Failed() {
			t.Fatalf("phase %d diverged: %+v vs %+v", i, sa[i], sb[i])
		}
	}
}
