package experiment

import (
	"testing"
	"time"

	"treep/internal/nodeprof"
	"treep/internal/proto"
)

// smallOpts keeps test sweeps fast.
func smallOpts() Options {
	return Options{
		N:       150,
		Seeds:   []int64{1, 2},
		Phases:  KillSweep(10, 50, 3*time.Second),
		WarmUp:  6 * time.Second,
		Lookups: 40,
	}
}

func TestKillSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	res := Run(smallOpts())
	if len(res.Trials) != 2 {
		t.Fatalf("trials %d", len(res.Trials))
	}
	for _, tr := range res.Trials {
		if len(tr.Steps) != 5 {
			t.Fatalf("steps %d, want 5 (10..50%%)", len(tr.Steps))
		}
		for _, st := range tr.Steps {
			if len(st.PerAlgo) != 3 {
				t.Fatalf("algos per step %d", len(st.PerAlgo))
			}
			for algo, a := range st.PerAlgo {
				if a.Found+a.Failed() != 40 {
					t.Fatalf("%v at %d%%: %d lookups accounted",
						algo, st.KillPct, a.Found+a.Failed())
				}
			}
			if st.Partitions < 1 {
				t.Fatal("partition count must be >= 1")
			}
		}
	}
}

// TestKillSweepTargetsAreExact: the step labelled p % has killed exactly
// p·N/100 peers. A float accumulator (frac += 0.05, int(frac·N)) leaves
// the 45, 50 and 55 % steps one peer short at N=100.
func TestKillSweepTargetsAreExact(t *testing.T) {
	const n = 100
	res := Run(Options{
		N: n, Seeds: []int64{1}, Algos: []proto.Algo{proto.AlgoG},
		Phases: KillSweep(5, 55, time.Second), WarmUp: time.Second, Lookups: 1,
	})
	steps := res.Trials[0].Steps
	if len(steps) != 11 {
		t.Fatalf("%d steps, want 11 (5..55 %%)", len(steps))
	}
	for i, st := range steps {
		if want := (i + 1) * 5; st.KillPct != want || st.Alive != n-want*n/100 {
			t.Errorf("step %d: %d alive at %d %%, want %d alive at %d %%", i, st.Alive, st.KillPct, n-want*n/100, want)
		}
	}
}

func TestKillSweepDeterministicPerSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	o := smallOpts()
	o.Seeds = []int64{7}
	a := Run(o)
	b := Run(o)
	for i := range a.Trials[0].Steps {
		sa, sb := a.Trials[0].Steps[i], b.Trials[0].Steps[i]
		for _, algo := range []proto.Algo{proto.AlgoG, proto.AlgoNG, proto.AlgoNGSA} {
			if sa.PerAlgo[algo].Found != sb.PerAlgo[algo].Found ||
				sa.PerAlgo[algo].Failed() != sb.PerAlgo[algo].Failed() {
				t.Fatalf("step %d algo %v not deterministic", i, algo)
			}
		}
	}
}

func TestSweepAggregations(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	res := Run(smallOpts())
	kills := res.KillPcts()
	if len(kills) != 5 || kills[0] != 10 || kills[4] != 50 {
		t.Fatalf("kill pcts %v", kills)
	}
	fail := res.FailRateSeries(proto.AlgoG)
	if len(fail.Y) != 5 {
		t.Fatalf("fail series %v", fail.Y)
	}
	for _, v := range fail.Y {
		if v < 0 || v > 100 {
			t.Fatalf("fail%% out of range: %v", v)
		}
	}
	hops := res.AvgHopsSeries(proto.AlgoG)
	if len(hops.Y) != 5 {
		t.Fatal("hops series size")
	}
	lo, hi := res.FailEnvelope(proto.AlgoG)
	for i := range lo.Y {
		if lo.Y[i] > hi.Y[i] {
			t.Fatalf("envelope inverted at %d", i)
		}
	}
	surf := res.HopSurface(proto.AlgoG)
	if len(surf.KillPcts()) != 5 {
		t.Fatalf("surface kills %v", surf.KillPcts())
	}
	parts := res.PartitionSeries()
	if len(parts.Y) != 5 {
		t.Fatal("partition series size")
	}
}

func TestSweepPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	// The qualitative claims of §IV.a on a reduced network: failures grow
	// with the kill fraction; the three algorithms stay within a band of
	// each other; hop counts stay bounded.
	o := smallOpts()
	o.Seeds = []int64{1, 2, 3}
	res := Run(o)

	g := res.FailRateSeries(proto.AlgoG)
	if g.Y[0] > 30 {
		t.Fatalf("early failure rate too high: %v", g.Y)
	}
	ng := res.FailRateSeries(proto.AlgoNG)
	ngsa := res.FailRateSeries(proto.AlgoNGSA)
	for i := range g.Y {
		// "these algorithms achieve similar performance": allow a wide
		// band on the small test network.
		if diff := g.Y[i] - ng.Y[i]; diff > 40 || diff < -40 {
			t.Fatalf("G vs NG diverge at step %d: %v vs %v", i, g.Y[i], ng.Y[i])
		}
		if diff := g.Y[i] - ngsa.Y[i]; diff > 40 || diff < -40 {
			t.Fatalf("G vs NGSA diverge at step %d", i)
		}
	}
	hops := res.AvgHopsSeries(proto.AlgoG)
	for _, v := range hops.Y {
		if v > 25 {
			t.Fatalf("avg hops exploded: %v", hops.Y)
		}
	}
}

func TestVariablePolicySweep(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	o := smallOpts()
	o.Seeds = []int64{1}
	o.Policy = nodeprof.CapacityPolicy{Min: 2, Max: 16}
	res := Run(o)
	if len(res.Trials[0].Steps) == 0 {
		t.Fatal("no steps")
	}
}

func TestAblationOptionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	o := smallOpts()
	o.Seeds = []int64{1}
	o.Phases = KillSweep(10, 20, 3*time.Second)
	o.PiggybackOnly = true
	res := Run(o)
	if len(res.Trials[0].Steps) != 2 {
		t.Fatalf("steps %d", len(res.Trials[0].Steps))
	}
}

func TestHeightLaw(t *testing.T) {
	points := HeightLaw([]int{64, 256, 1024}, 1)
	if len(points) != 3 {
		t.Fatal("points")
	}
	prev := 0
	for _, p := range points {
		if p.Height < prev {
			t.Fatalf("height must not shrink with n: %+v", points)
		}
		prev = p.Height
		if diff := float64(p.Height) - p.Predicted; diff > 3 || diff < -3 {
			t.Fatalf("height %d far from prediction %.1f (n=%d)", p.Height, p.Predicted, p.N)
		}
	}
	if RenderHeightLaw(points) == "" {
		t.Fatal("render")
	}
}

func TestTableSizes(t *testing.T) {
	rows := TableSizes(300, 1)
	if len(rows) < 3 {
		t.Fatalf("rows %v", rows)
	}
	for _, r := range rows {
		if r.AvgSize <= 0 {
			t.Fatalf("level %d empty tables", r.Level)
		}
		// Tables must stay within a small constant factor of the §III.e
		// formulas — the paper's point is that they are small.
		if r.AvgSize > 4*r.FormulaSize+20 {
			t.Fatalf("level %d table size %.1f >> formula %.1f", r.Level, r.AvgSize, r.FormulaSize)
		}
	}
	// Level-0 nodes must have smaller tables than upper-level nodes.
	if rows[0].AvgSize >= rows[len(rows)-1].AvgSize {
		t.Fatalf("level-0 tables should be smallest: %+v", rows)
	}
	if RenderTableSizes(rows) == "" {
		t.Fatal("render")
	}
}

func TestLogNHops(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	points := LogNHops([]int{100, 400}, 1, 60)
	if len(points) != 2 {
		t.Fatal("points")
	}
	for _, p := range points {
		if p.FailRate > 0.15 {
			t.Fatalf("steady state fail rate %v at n=%d", p.FailRate, p.N)
		}
		if p.AvgHops <= 0 || p.AvgHops > 15 {
			t.Fatalf("hops %v at n=%d", p.AvgHops, p.N)
		}
	}
	// 4x the network must cost far less than 4x the hops.
	if points[1].AvgHops > 3*points[0].AvgHops+2 {
		t.Fatalf("hops not logarithmic: %+v", points)
	}
	if RenderHops(points) == "" {
		t.Fatal("render")
	}
}
