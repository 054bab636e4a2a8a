// Benchmarks: one target per paper artefact (see DESIGN.md §5). Each runs
// a scaled-down version of the corresponding experiment; the full-size
// sweeps live in cmd/treep-bench, whose output is recorded in
// EXPERIMENTS.md. Reported custom metrics carry the figure's headline
// quantity (failure % or hops), so `go test -bench` output doubles as a
// compact reproduction table.
package treep

import (
	"testing"
	"time"

	"treep/internal/chord"
	"treep/internal/experiment"
	"treep/internal/flood"
	"treep/internal/nodeprof"
	"treep/internal/proto"
	"treep/internal/scenario"
	"treep/internal/simrt"
)

// benchSweep is the shared scaled-down sweep configuration.
func benchSweep() experiment.Options {
	return experiment.Options{
		N:       300,
		Seeds:   []int64{1},
		Phases:  experiment.KillSweep(10, 50, 3*time.Second),
		WarmUp:  6 * time.Second,
		Lookups: 60,
	}
}

func reportFailAt(b *testing.B, res *experiment.Result, algo proto.Algo, killPct float64, label string) {
	b.Helper()
	s := res.FailRateSeries(algo)
	for i, x := range res.KillPcts() {
		if x == killPct {
			b.ReportMetric(s.Y[i], label)
			return
		}
	}
}

func BenchmarkFigA_FailedLookups_FixedNC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchSweep()
		o.Policy = nodeprof.FixedPolicy{NC: 4}
		res := experiment.Run(o)
		reportFailAt(b, res, proto.AlgoG, 30, "failpct@30kill")
		reportFailAt(b, res, proto.AlgoG, 50, "failpct@50kill")
	}
}

func BenchmarkFigB_AvgHops_FixedNC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchSweep()
		res := experiment.Run(o)
		h := res.AvgHopsSeries(proto.AlgoG)
		if len(h.Y) > 0 {
			b.ReportMetric(h.Y[0], "hops@10kill")
			b.ReportMetric(h.Y[len(h.Y)-1], "hops@50kill")
		}
	}
}

func BenchmarkFigC_FailedLookups_VarNC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchSweep()
		o.Policy = nodeprof.CapacityPolicy{Min: 2, Max: 16}
		res := experiment.Run(o)
		reportFailAt(b, res, proto.AlgoG, 30, "failpct@30kill")
	}
}

func BenchmarkFigD_AvgHops_FixedVsVar(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fixed := benchSweep()
		res1 := experiment.Run(fixed)
		variable := benchSweep()
		variable.Policy = nodeprof.CapacityPolicy{Min: 2, Max: 16}
		res2 := experiment.Run(variable)
		h1, h2 := res1.AvgHopsSeries(proto.AlgoG), res2.AvgHopsSeries(proto.AlgoG)
		if len(h1.Y) > 0 && len(h2.Y) > 0 {
			b.ReportMetric(h1.Y[len(h1.Y)-1], "hops-fixed@50kill")
			b.ReportMetric(h2.Y[len(h2.Y)-1], "hops-var@50kill")
		}
	}
}

func BenchmarkFigE_MinMaxEnvelope(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchSweep()
		o.Seeds = []int64{1, 2, 3}
		res := experiment.Run(o)
		lo, hi := res.FailEnvelope(proto.AlgoG)
		if n := len(hi.Y); n > 0 {
			b.ReportMetric(hi.Y[n-1]-lo.Y[n-1], "spread@50kill")
		}
		parts := res.PartitionSeries()
		if n := len(parts.Y); n > 0 {
			b.ReportMetric(parts.Y[n-1], "partitions@50kill")
		}
	}
}

func benchSurface(b *testing.B, policy nodeprof.ChildPolicy, algo proto.Algo) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		o := benchSweep()
		o.Policy = policy
		o.Algos = []proto.Algo{algo}
		res := experiment.Run(o)
		surf := res.HopSurface(algo)
		if h := surf.At(10); h.Total() > 0 {
			b.ReportMetric(100*h.Fraction(h.Percentile(0.5)), "pct-at-modal-hops")
			b.ReportMetric(float64(h.Percentile(0.5)), "modal-hops")
		}
	}
}

func BenchmarkFigF_HopSurface_G_FixedNC(b *testing.B) {
	benchSurface(b, nodeprof.FixedPolicy{NC: 4}, proto.AlgoG)
}

func BenchmarkFigG_HopSurface_NG_FixedNC(b *testing.B) {
	benchSurface(b, nodeprof.FixedPolicy{NC: 4}, proto.AlgoNG)
}

func BenchmarkFigH_HopSurface_G_VarNC(b *testing.B) {
	benchSurface(b, nodeprof.CapacityPolicy{Min: 2, Max: 16}, proto.AlgoG)
}

func BenchmarkFigI_HopSurface_NG_VarNC(b *testing.B) {
	benchSurface(b, nodeprof.CapacityPolicy{Min: 2, Max: 16}, proto.AlgoNG)
}

// benchScenario runs one scenario timeline through the experiment harness
// and reports lookup failure percentage and invariant-violation count at
// the final phase boundary.
func benchScenario(b *testing.B, phases []scenario.Phase) {
	b.Helper()
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		res := experiment.Run(experiment.Options{
			N:        300,
			Seeds:    []int64{1},
			Algos:    []proto.Algo{proto.AlgoG},
			Phases:   phases,
			Checkers: scenario.AllCheckers(),
			Lookups:  60,
		})
		last := len(res.Trials[0].Steps) - 1
		fail := res.FailRateSeries(proto.AlgoG)
		b.ReportMetric(fail.Y[last], "failpct@end")
		viol := res.ViolationSeries()
		b.ReportMetric(viol.Y[last], "violations@end")
		if r := res.Trials[0].Result; r != nil {
			events += r.Events
		}
	}
	if events > 0 {
		b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
	}
}

// BenchmarkScenarioChurn is the canonical churn timeline at N=300; the
// populations above it are treep-bench's -scale ladder.
func BenchmarkScenarioChurn(b *testing.B) {
	benchScenario(b, []scenario.Phase{
		scenario.Churn{For: 15 * time.Second, JoinRate: 2, LeaveRate: 2},
		scenario.Settle{For: 12 * time.Second},
	})
}

// benchDHTChurn is the canonical storage workload: seed records, then a
// put/get mix with concurrent churn, then settle — the regime put-time-only
// replication silently lost data under. The reported metrics are the
// ledger size, the read-miss percentage, and the end-state violation count
// (durability checkers included); allocs/op guards the storage hot path.
func benchDHTChurn(b *testing.B, n int) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c := simrt.New(simrt.Options{N: n, Seed: 1, Bulk: true})
		st := scenario.NewStorage()
		st.AttachAll(c)
		c.StartAll()
		opts := scenario.Options{
			Checkers:    append(scenario.AllCheckers(), scenario.StorageCheckers(0.99)...),
			Storage:     st,
			FinalGrace:  3 * time.Second,
			FinalChecks: 4,
		}
		res := scenario.Run(c, opts, dhtChurnPhases()...)
		b.ReportMetric(float64(st.Records()), "records")
		miss := 0.0
		if st.Gets > 0 {
			miss = 100 * float64(st.GetMiss) / float64(st.Gets)
		}
		b.ReportMetric(miss, "getmiss%")
		b.ReportMetric(float64(len(res.Final)), "violations@end")
	}
}

// dhtChurnPhases is the canonical put/get-under-churn timeline.
func dhtChurnPhases() []scenario.Phase {
	return []scenario.Phase{
		scenario.Settle{For: 8 * time.Second},
		scenario.StoreRecords{Count: 300},
		scenario.StorageWorkload{For: 15 * time.Second, PutRate: 5, GetRate: 10, JoinRate: 2, LeaveRate: 2},
		scenario.Settle{For: 10 * time.Second},
	}
}

func BenchmarkDHTChurn(b *testing.B) {
	benchDHTChurn(b, 300)
}

func BenchmarkDHTChurn2k(b *testing.B) {
	benchDHTChurn(b, 2000)
}

func BenchmarkScenarioFlashCrowd(b *testing.B) {
	benchScenario(b, []scenario.Phase{
		scenario.FlashCrowd{Joins: 60, Over: 4 * time.Second},
		scenario.Settle{For: 12 * time.Second},
	})
}

func BenchmarkScenarioZoneFailure(b *testing.B) {
	benchScenario(b, []scenario.Phase{
		scenario.ZoneFailure{Zone: scenario.ZoneFraction(0.40, 0.55), Settle: 20 * time.Second},
	})
}

func BenchmarkScenarioPartitionHeal(b *testing.B) {
	benchScenario(b, []scenario.Phase{
		scenario.PartitionHeal{Hold: 8 * time.Second, Heal: 20 * time.Second},
	})
}

func BenchmarkAN1_HeightLaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiment.HeightLaw([]int{256, 1024}, 1)
		last := points[len(points)-1]
		b.ReportMetric(float64(last.Height), "height@1024")
		b.ReportMetric(last.Predicted, "predicted@1024")
	}
}

func BenchmarkAN2_RoutingTableSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiment.TableSizes(300, 1)
		if len(rows) > 0 {
			b.ReportMetric(rows[0].AvgSize, "level0-table-size")
			b.ReportMetric(rows[len(rows)-1].AvgSize, "top-table-size")
		}
	}
}

func BenchmarkAN3_LogNHops(b *testing.B) {
	for i := 0; i < b.N; i++ {
		points := experiment.LogNHops([]int{200, 800}, 1, 60)
		b.ReportMetric(points[0].AvgHops, "hops@200")
		b.ReportMetric(points[1].AvgHops, "hops@800")
	}
}

func BenchmarkEXT1_Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Chord under the same 20% kill.
		cc := chord.New(300, 1)
		cc.Run(4 * time.Second)
		rng := cc.Kernel.Stream(5)
		for _, victim := range rng.Perm(len(cc.Nodes))[:60] {
			cc.Kill(cc.Nodes[victim])
		}
		cc.DropDead()
		cc.Run(6 * time.Second)
		alive := cc.AliveNodes()
		found := 0
		for j := 0; j < 60; j++ {
			origin := alive[rng.Intn(len(alive))]
			target := alive[rng.Intn(len(alive))]
			want := target.ID()
			origin.Lookup(cc, want, func(r chord.LookupResult) {
				if r.Found && r.Succ == want {
					found++
				}
			})
		}
		cc.Run(12 * time.Second)
		b.ReportMetric(100*float64(60-found)/60, "chord-failpct@20kill")

		// Flooding message cost for one lookup.
		fc := flood.New(300, 4, 1)
		before := fc.Net.Stats().Sent
		fc.Nodes[0].Lookup(fc, fc.Nodes[200].ID(), 8, func(flood.Result) {})
		fc.Run(12 * time.Second)
		b.ReportMetric(float64(fc.Net.Stats().Sent-before), "flood-msgs-per-lookup")
	}
}

func BenchmarkABL2_UpdatePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchSweep()
		o.Phases = experiment.KillSweep(10, 30, 3*time.Second)
		res1 := experiment.Run(o)
		o2 := o
		o2.PiggybackOnly = true
		res2 := experiment.Run(o2)
		reportFailAt(b, res1, proto.AlgoG, 30, "immediate-failpct@30")
		reportFailAt(b, res2, proto.AlgoG, 30, "piggyback-failpct@30")
	}
}
