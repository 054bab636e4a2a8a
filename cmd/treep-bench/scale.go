package main

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"treep/internal/experiment"
	"treep/internal/proto"
	"treep/internal/scenario"
)

// ScalePoint is one row of the machine-generated substrate scale table
// (EXPERIMENTS.md): the canonical churn timeline at one population on one
// engine configuration, with the quantities the scale claims are judged
// on — events/s must stay flat as N grows, allocs/run and peak heap must
// grow linearly at worst, and sharded rows must show wall-clock speedup
// over the single-shard reference when cores are available.
type ScalePoint struct {
	N int `json:"n"`
	// Shards is the engine configuration: 0 is one shard in the classic
	// draw order, ≥1 that many worker shards drawing per origin.
	Shards int `json:"shards"`
	// MaxProcs records GOMAXPROCS at measurement time. Speedup claims are
	// only meaningful when MaxProcs covers the shard count.
	MaxProcs   int     `json:"maxprocs"`
	WallSec    float64 `json:"wall_sec"`
	Events     uint64  `json:"events"`
	EventsPerS float64 `json:"events_per_sec"`
	// AllocsRun is the number of heap allocations over the run (the
	// machine-independent cost metric; runtime.MemStats.Mallocs delta).
	AllocsRun uint64 `json:"allocs_run"`
	// PeakHeapBytes is the maximum live heap observed while the scenario
	// ran (sampled HeapAlloc).
	PeakHeapBytes uint64 `json:"peak_heap_bytes"`
	// Speedup is wall-clock of this row's single-shard counterpart
	// divided by this row's wall-clock — the parallel speedup at this
	// shard count. Zero when no shards=1 row for the same N exists in the
	// run, or when either row was truncated.
	Speedup float64 `json:"speedup,omitempty"`
	// Truncated reports the -budget wall-clock cap expired mid-row: the
	// virtual timeline did not finish and every measurement covers only
	// the completed prefix. Truncated rows are incomparable.
	Truncated bool `json:"truncated,omitempty"`
	// FailPct is the failed-lookup percentage after the last phase.
	FailPct    float64 `json:"fail_pct"`
	Violations float64 `json:"violations_end"`
}

// parsePop parses one -scale population, accepting plain integers and
// k/M magnitude suffixes ("100k" = 100_000, "1M" = 1_000_000).
func parsePop(s string) (int, error) {
	mult := 1
	switch {
	case strings.HasSuffix(s, "k"), strings.HasSuffix(s, "K"):
		mult, s = 1_000, s[:len(s)-1]
	case strings.HasSuffix(s, "m"), strings.HasSuffix(s, "M"):
		mult, s = 1_000_000, s[:len(s)-1]
	}
	n, err := strconv.Atoi(s)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("bad population %q", s)
	}
	return n * mult, nil
}

// scaleChurnPhases is the canonical churn timeline used at every scale
// point.
func scaleChurnPhases() []scenario.Phase {
	return []scenario.Phase{
		scenario.Churn{For: 15 * time.Second, JoinRate: 2, LeaveRate: 2},
		scenario.Settle{For: 12 * time.Second},
	}
}

// heapWatcher samples HeapAlloc until stopped and reports the maximum.
type heapWatcher struct {
	stop chan struct{}
	done chan struct{}
	peak atomic.Uint64
}

func watchHeap() *heapWatcher {
	w := &heapWatcher{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(w.done)
		// ReadMemStats stops the world; a 250 ms cadence keeps the peak
		// estimate honest without perturbing the run it is measuring.
		var ms runtime.MemStats
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > w.peak.Load() {
				w.peak.Store(ms.HeapAlloc)
			}
			select {
			case <-w.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

func (w *heapWatcher) Stop() uint64 {
	close(w.stop)
	<-w.done
	return w.peak.Load()
}

// runChurnPoint plays the canonical churn timeline at one population on
// one engine configuration and returns its scale row.
func runChurnPoint(n, shards, lookups int, budget time.Duration) ScalePoint {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	w := watchHeap()
	start := time.Now()
	res := experiment.Run(experiment.Options{
		N:        n,
		Seeds:    []int64{1},
		Algos:    []proto.Algo{proto.AlgoG},
		Phases:   scaleChurnPhases(),
		Checkers: scenario.AllCheckers(),
		Lookups:  lookups,
		Shards:   shards,
		Budget:   budget,
	})
	wall := time.Since(start)
	peak := w.Stop()
	runtime.ReadMemStats(&ms)

	p := ScalePoint{
		N:             n,
		Shards:        shards,
		MaxProcs:      runtime.GOMAXPROCS(0),
		WallSec:       wall.Seconds(),
		AllocsRun:     ms.Mallocs - mallocs0,
		PeakHeapBytes: peak,
		Truncated:     res.Trials[0].Truncated,
	}
	if r := res.Trials[0].Result; r != nil {
		p.Events = r.Events
		p.EventsPerS = float64(r.Events) / wall.Seconds()
	}
	fr := res.FailRateSeries(proto.AlgoG)
	if len(fr.Y) > 0 {
		p.FailPct = fr.Y[len(fr.Y)-1]
	}
	vi := res.ViolationSeries()
	if len(vi.Y) > 0 {
		p.Violations = vi.Y[len(vi.Y)-1]
	}
	return p
}

// fillSpeedups computes each sharded row's wall-clock speedup against its
// single-shard counterpart at the same N. Truncated rows get no speedup
// in either role: a row cut short by the budget is incomparable, not
// fast.
func fillSpeedups(points []ScalePoint) {
	ref := make(map[int]float64) // n -> shards=1 wall
	for _, p := range points {
		if p.Shards == 1 && !p.Truncated {
			ref[p.N] = p.WallSec
		}
	}
	for i := range points {
		p := &points[i]
		if p.Shards < 1 || p.Truncated {
			continue
		}
		if base, ok := ref[p.N]; ok && p.WallSec > 0 {
			p.Speedup = base / p.WallSec
		}
	}
}

// runScale executes the churn scenario once per (population, shard count)
// and writes the scale table as JSON under outDir.
func runScale(spec, shardsSpec, outDir string, lookups int, budget time.Duration) {
	var ns []int
	for _, f := range strings.Split(spec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := parsePop(f)
		if err != nil {
			fail("-scale: %v", err)
		}
		ns = append(ns, n)
	}
	if len(ns) == 0 {
		fail("-scale needs at least one population")
	}
	var shardCounts []int
	for _, f := range strings.Split(shardsSpec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		s, err := strconv.Atoi(f)
		if err != nil || s < 0 {
			fail("bad -shards count %q", f)
		}
		shardCounts = append(shardCounts, s)
	}
	if len(shardCounts) == 0 {
		shardCounts = []int{0}
	}

	fmt.Printf("# Substrate scale — churn 15s@2+2, settle 12s, %d lookups/phase, seed 1, GOMAXPROCS=%d\n",
		lookups, runtime.GOMAXPROCS(0))
	if budget > 0 {
		fmt.Printf("# wall-clock budget %v per row: truncated rows marked T, excluded from speedup\n", budget)
	}
	fmt.Println()
	fmt.Printf("| %8s | %6s | %9s | %9s | %11s | %9s | %6s | %10s |\n",
		"N", "shards", "wall", "events/s", "allocs/run", "peak heap", "fail%", "violations")

	points := make([]ScalePoint, 0, len(ns)*len(shardCounts))
	for _, n := range ns {
		for _, s := range shardCounts {
			p := runChurnPoint(n, s, lookups, budget)
			points = append(points, p)
			printScaleRow(p)
		}
	}

	fillSpeedups(points)
	speedups := false
	for _, p := range points {
		if p.Shards >= 2 && p.Speedup > 0 {
			if !speedups {
				fmt.Println()
				speedups = true
			}
			fmt.Printf("speedup: N=%d %d shards: %.2fx vs 1 shard\n", p.N, p.Shards, p.Speedup)
		}
	}

	path, err := writeJSON(outDir, "scale-churn", points)
	if err != nil {
		fatal("writing scale records: %v", err)
	}
	fmt.Printf("\nrecords: %s\n", path)
}

// printScaleRow prints one table row (classic-draw-order rows render
// shards as "-").
func printScaleRow(p ScalePoint) {
	shards := "-"
	if p.Shards > 0 {
		shards = strconv.Itoa(p.Shards)
	}
	trunc := " "
	if p.Truncated {
		trunc = "T"
	}
	fmt.Printf("| %8d | %6s | %7.1fs%s | %9.0f | %11d | %8.1fM | %6.1f | %10.1f |\n",
		p.N, shards, p.WallSec, trunc,
		p.EventsPerS, p.AllocsRun, float64(p.PeakHeapBytes)/(1<<20), p.FailPct, p.Violations)
}
