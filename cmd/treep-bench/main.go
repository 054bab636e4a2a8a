// treep-bench regenerates every figure and analytic claim of the TreeP
// paper's evaluation (§IV and §III.e) plus the ablations listed in
// DESIGN.md, printing the series the paper plots. Run with -quick for a
// reduced sweep.
//
// With -compare it instead runs the cross-protocol harness: TreeP and the
// named baselines play the same scenario script from identical seeds, and
// the per-phase records are exported as JSON under -out:
//
//	treep-bench -compare chord,flood -scenario churn -n 2000 -out results/
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"treep/internal/experiment"
	"treep/internal/nodeprof"
	"treep/internal/proto"
)

// usage prints the synopsis to stderr (installed as flag.Usage, and called
// on every operand/flag-value error before the non-zero exit).
func usage() {
	fmt.Fprintf(flag.CommandLine.Output(), `treep-bench: TreeP paper reproduction and comparative benchmarks

Paper mode (default): regenerate the kill-sweep figures, analytics and
ablations of §IV / §III.e.

Compare mode (-compare): run TreeP head-to-head against the named
baselines through one scenario script from identical seeds, exporting
per-phase JSON records:

  treep-bench -compare chord,flood -scenario churn -n 2000 -out results/

Scale mode (-scale): run the canonical churn scenario at each listed
population (k/M suffixes accepted: 100k, 1M) and export the substrate
scale table (events/s, allocs/run, peak heap, speedup) as JSON — the
machine-readable source of the EXPERIMENTS.md scale table. -shards
lists engine configurations per population (0 = one shard, classic draw
order, ≥1 = that many shards drawing per origin; sharded rows report
wall-clock speedup against the shards=1 row). -budget caps each row's
wall clock: rows that overrun stop at the next epoch barrier (10 ms of
virtual time at most, -shards 0 rows included), are marked truncated and
are excluded from the speedup column:

  treep-bench -scale 10k,100k,1M -shards 1,4 -budget 5m -out results/

Backends: %s. Scenarios: %s.

Flags:
`, strings.Join(experiment.CompareBackends, ", "), strings.Join(experiment.CompareScenarios, ", "))
	flag.PrintDefaults()
}

// fail prints the error and the usage, then exits non-zero.
func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "treep-bench: "+format+"\n\n", args...)
	usage()
	os.Exit(2)
}

// fatal prints the error (no usage — the flags were fine) and exits
// non-zero.
func fatal(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "treep-bench: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	quick := flag.Bool("quick", false, "reduced network and trial count")
	n := flag.Int("n", 1000, "network size for the kill sweeps")
	trials := flag.Int("trials", 3, "trials (seeds) per sweep")
	lookups := flag.Int("lookups", 150, "lookups per algorithm per step")
	settle := flag.Duration("settle", 8*time.Second, "repair window after each kill step")
	compare := flag.String("compare", "", "comma-separated baselines to compare TreeP against (chord, flood); enables compare mode")
	scen := flag.String("scenario", "churn", "compare mode: scenario script (churn, flashcrowd, zonefail, partition)")
	out := flag.String("out", "results", "compare/scale mode: directory for the JSON records")
	scale := flag.String("scale", "", "comma-separated populations (e.g. 500,2000,100k,1M): run the canonical churn scenario per N and export the substrate scale table; enables scale mode")
	shards := flag.String("shards", "0", "scale mode: comma-separated engine configurations per population (0 = one shard, classic draw order, ≥1 = that many shards)")
	budget := flag.Duration("budget", 0, "scale mode: wall-clock cap per row; rows that overrun stop at the next epoch barrier and are marked truncated (0 = no cap)")
	flag.Usage = usage
	flag.Parse()

	if flag.NArg() > 0 {
		fail("unexpected argument %q", flag.Arg(0))
	}

	if *quick {
		*n, *trials, *lookups = 400, 2, 60
	}
	seeds := make([]int64, *trials)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}

	if *scale != "" && *compare != "" {
		fail("-scale and -compare are mutually exclusive")
	}
	if *scale == "" && (*shards != "0" || *budget != 0) {
		fail("-shards and -budget require -scale")
	}
	if *scale != "" {
		runScale(*scale, *shards, *out, *lookups, *budget)
		return
	}
	if *compare != "" {
		runCompare(*compare, *scen, *out, *n, seeds, *lookups)
		return
	}
	base := experiment.Options{
		N: *n, Seeds: seeds, Lookups: *lookups,
		Phases: experiment.KillSweep(5, 80, *settle),
	}

	fmt.Printf("# TreeP paper reproduction — n=%d trials=%d lookups/step=%d settle=%v\n\n",
		*n, *trials, *lookups, *settle)

	// --- Case 1: fixed nc = 4 (paper §IV.a) -------------------------------
	fixed := base
	fixed.Policy = nodeprof.FixedPolicy{NC: 4}
	start := time.Now()
	resFixed := experiment.Run(fixed)
	fmt.Printf("## FIG-A — failed lookups %% vs killed %% (nc=4)  [%v]\n", time.Since(start).Truncate(time.Second))
	printSeries(resFixed.KillPcts(),
		resFixed.FailRateSeries(proto.AlgoG),
		resFixed.FailRateSeries(proto.AlgoNG),
		resFixed.FailRateSeries(proto.AlgoNGSA))

	fmt.Println("## FIG-B — average hops vs killed % (nc=4)")
	printSeries(resFixed.KillPcts(),
		resFixed.AvgHopsSeries(proto.AlgoG),
		resFixed.AvgHopsSeries(proto.AlgoNG),
		resFixed.AvgHopsSeries(proto.AlgoNGSA))

	fmt.Println("## FIG-E — min/max failed lookups envelope (G, nc=4) + partitions")
	lo, hi := resFixed.FailEnvelope(proto.AlgoG)
	printSeries(resFixed.KillPcts(), lo, hi, resFixed.PartitionSeries())

	fmt.Println("## FIG-F — hop surface, algorithm G (nc=4): % of requests (cells) resolved in N hops")
	fmt.Println(resFixed.HopSurface(proto.AlgoG).Render(12))
	fmt.Println("## FIG-G — hop surface, algorithm NG (nc=4)")
	fmt.Println(resFixed.HopSurface(proto.AlgoNG).Render(12))

	// --- Case 2: nc variable (capacity-driven, paper §IV.b) ---------------
	variable := base
	variable.Policy = nodeprof.CapacityPolicy{Min: 2, Max: 16}
	resVar := experiment.Run(variable)
	fmt.Println("## FIG-C — failed lookups % vs killed % (nc variable)")
	printSeries(resVar.KillPcts(),
		resVar.FailRateSeries(proto.AlgoG),
		resVar.FailRateSeries(proto.AlgoNG),
		resVar.FailRateSeries(proto.AlgoNGSA))

	fmt.Println("## FIG-D — average hops: fixed nc vs variable nc (G)")
	fx := resFixed.AvgHopsSeries(proto.AlgoG)
	fx.Name = "hops/fixed-nc4"
	vr := resVar.AvgHopsSeries(proto.AlgoG)
	vr.Name = "hops/variable-nc"
	printSeries(resFixed.KillPcts(), fx, vr)

	fmt.Println("## FIG-H — hop surface, algorithm G (nc variable)")
	fmt.Println(resVar.HopSurface(proto.AlgoG).Render(12))
	fmt.Println("## FIG-I — hop surface, algorithm NG (nc variable)")
	fmt.Println(resVar.HopSurface(proto.AlgoNG).Render(12))

	// --- Analytic checks (§III.e/f) ----------------------------------------
	fmt.Println("## AN-1 — height law h ≈ log_c((n+1)/2)")
	fmt.Println(experiment.RenderHeightLaw(experiment.HeightLaw([]int{256, 1024, 4096}, 1)))

	fmt.Println("## AN-2 — routing-table sizes vs §III.e formulas")
	fmt.Println(experiment.RenderTableSizes(experiment.TableSizes(min(*n, 1000), 1)))

	fmt.Println("## AN-3 — lookup hops vs n (O(log n) claim)")
	fmt.Println(experiment.RenderHops(experiment.LogNHops([]int{250, 500, 1000, 2000}, 1, *lookups)))

	// --- Ablations ----------------------------------------------------------
	abl := base
	abl.Seeds = seeds[:1]
	abl.Phases = experiment.KillSweep(5, 50, *settle)

	// ABL-1 (distance model) and ABL-3 (retain upper levels) are tables in
	// EXPERIMENTS.md, reproducible at 8085ea0.
	fmt.Println("## ABL-2 — immediate updates vs piggyback-only (§III.d)")
	ablBase := experiment.Run(abl)
	ablP := abl
	ablP.PiggybackOnly = true
	resP := experiment.Run(ablP)
	p3 := ablBase.FailRateSeries(proto.AlgoG)
	p3.Name = "fail%/immediate"
	p4 := resP.FailRateSeries(proto.AlgoG)
	p4.Name = "fail%/piggyback"
	printSeries(ablBase.KillPcts(), p3, p4)
}

// runCompare executes the cross-protocol harness and exports its records.
func runCompare(compare, scen, out string, n int, seeds []int64, lookups int) {
	// TreeP is always measured; -compare names the baselines. Dedupe so
	// "-compare chord,chord" cannot double-run trials. Name and scenario
	// validation is RunCompare's job — one source of truth.
	backends := []string{"treep"}
	seen := map[string]bool{"treep": true}
	for _, b := range strings.Split(compare, ",") {
		b = strings.TrimSpace(b)
		if b == "" || seen[b] {
			continue
		}
		seen[b] = true
		backends = append(backends, b)
	}
	opts := experiment.CompareOptions{
		N:               n,
		Seeds:           seeds,
		Backends:        backends,
		Scenario:        scen,
		LookupsPerPhase: lookups,
	}
	fmt.Printf("# Comparative run — backends=%s scenario=%s n=%d trials=%d lookups/phase=%d\n\n",
		strings.Join(backends, ","), scen, n, len(seeds), lookups)
	start := time.Now()
	res, err := experiment.RunCompare(opts)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("## per-phase means across %d trials  [%v]\n", len(seeds), time.Since(start).Truncate(time.Second))
	fmt.Println(experiment.CompareSummary(res))

	path, err := writeJSON(out, "compare-"+scen, res.Records)
	if err != nil {
		fatal("writing records: %v", err)
	}
	fmt.Printf("records: %s (%d rows)\n", path, len(res.Records))
}

// writeJSON writes v, indented, to <dir>/<base>.json, creating dir as
// needed, and returns the path: the one exporter of compare and scale
// mode.
func writeJSON(dir, base string, v any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".json")
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

func printSeries(xs []float64, cols ...*experiment.Series) {
	fmt.Println(experiment.Table("kill%", xs, cols))
}
