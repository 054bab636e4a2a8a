// Package experiment reproduces the TreeP paper's evaluation (§IV) and
// extends it. One runner (Run) plays a phase timeline once per seed and
// measures lookups at every phase boundary: the kill sweep behind Figures
// A–I is the timeline KillSweep builds, and the scripted scenarios
// (continuous churn, flash crowds, zone failures, partitions) are
// internal/scenario phases. Beside it sit the analytic checks of §III.e
// (height law, routing-table sizes, O(log n) hops) and the cross-protocol
// runner (RunCompare) that plays TreeP, Chord and flooding through
// identical scripts from identical seeds. Each trial is an independent
// deterministic simulation; trials run concurrently.
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"time"

	"treep/internal/core"
	"treep/internal/nodeprof"
	"treep/internal/proto"
	"treep/internal/scenario"
	"treep/internal/simrt"
)

// Options configures a run: every seed plays the same phase timeline on a
// fresh steady-state network.
type Options struct {
	// N is the network size.
	N int
	// Seeds: one deterministic trial per seed.
	Seeds []int64
	// Algos are the lookup algorithms measured at every phase boundary.
	Algos []proto.Algo
	// Policy is the max-children policy (fixed nc=4 vs capacity-driven —
	// the paper's two cases). Nil means fixed nc=4.
	Policy nodeprof.ChildPolicy
	// Phases is the timeline every trial plays: KillSweep's kill steps or
	// scenario phases. Phases are immutable values, shared safely across
	// concurrent trials.
	Phases []scenario.Phase
	// Checkers are the invariants evaluated at each phase boundary; nil
	// evaluates none.
	Checkers []scenario.Checker
	// WarmUp is the steady-state run before the first phase.
	WarmUp time.Duration
	// Lookups is the number of lookups per algorithm at each boundary.
	Lookups int
	// PiggybackOnly disables immediate update pushes (ABL-2).
	PiggybackOnly bool
	// Shards selects the simulation engine: 0 runs the classic
	// single-threaded kernel, ≥1 runs the sharded multi-core kernel with
	// that many shards (see simrt.Options.Shards for the determinism
	// contract).
	Shards int
	// Budget caps each trial's wall-clock time. When it expires the
	// trial's cluster is interrupted — the virtual clock freezes, the
	// remaining timeline drains without advancing, and the trial is marked
	// Truncated. Zero means no cap. Truncated trials report whatever was
	// measured before the cut; consumers (the scale table) must treat
	// them as incomplete, not as fast.
	Budget time.Duration
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.N == 0 {
		o.N = 1000
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if len(o.Algos) == 0 {
		o.Algos = []proto.Algo{proto.AlgoG, proto.AlgoNG, proto.AlgoNGSA}
	}
	if o.WarmUp == 0 {
		o.WarmUp = 8 * time.Second
	}
	if o.Lookups == 0 {
		o.Lookups = 100
	}
	return o
}

// kill is one step of the paper's decimation (§IV: "we randomly
// disconnected some nodes at a rate of 5% ... until the number of the
// remaining nodes reached a threshold of 5% of the initial topology"):
// it fail-stops peers drawn from the cluster's workload stream until pct
// percent of the population is dead, then lets the overlay repair for
// settle.
type kill struct {
	pct    int
	settle time.Duration
}

// KillSweep is the paper's kill sweep as a timeline: a kill step every
// stepPct percent of the population up to maxPct, each followed by a
// settle window before the boundary is measured. The paper measures while
// the network is still absorbing the blow; small settle values reproduce
// its failure levels, large values show the self-healing limit.
func KillSweep(stepPct, maxPct int, settle time.Duration) []scenario.Phase {
	var out []scenario.Phase
	for pct := stepPct; pct <= maxPct; pct += stepPct {
		out = append(out, kill{pct, settle})
	}
	return out
}

// Name implements scenario.Phase.
func (k kill) Name() string { return fmt.Sprintf("kill-%d%%", k.pct) }

// Run implements scenario.Phase. The target is counted in whole peers,
// pct·N/100 rounded down, so "40 %" of 1000 is 400.
func (k kill) Run(e *scenario.Engine) {
	c, rng := e.C, e.C.Rand()
	target := k.pct * len(c.Nodes) / 100
	for killed := len(c.Nodes) - len(c.AliveNodes()); killed < target; {
		if n := c.Nodes[rng.Intn(len(c.Nodes))]; c.Alive(n) {
			c.Kill(n)
			killed++
		}
	}
	e.Run(k.settle)
}

// AlgoStep holds one algorithm's measurements at one phase boundary.
type AlgoStep struct {
	Found    int
	NotFound int
	Timeout  int
	// Hops is the hop histogram of successful lookups.
	Hops *Histogram
}

// Failed returns the failed-lookup count.
func (a *AlgoStep) Failed() int { return a.NotFound + a.Timeout }

// FailRate returns failures / total in [0,1].
func (a *AlgoStep) FailRate() float64 {
	total := a.Found + a.Failed()
	if total == 0 {
		return 0
	}
	return float64(a.Failed()) / float64(total)
}

// Step is the measurement taken at one phase boundary of one trial.
//
// Partitions and Violations come from observers that read the routing
// tables' lazily refreshed views, and elections depend on when those
// refresh (DESIGN.md §9). So each is taken only where the figures need it:
// partitions after kill steps, violations when Options.Checkers is set.
type Step struct {
	// Phase names the phase that just finished.
	Phase string
	// KillPct is the cumulative percentage of the initial population
	// killed (kill steps only).
	KillPct int
	// Alive is the live population at the boundary.
	Alive int
	// Partitions is the number of connected components of the live
	// knowledge graph (kill steps only; Figure E attributes its spike to
	// partitioning).
	Partitions int
	// Violations is the number of invariant violations at the boundary.
	Violations int
	// PerAlgo holds lookup measurements keyed by algorithm.
	PerAlgo map[proto.Algo]*AlgoStep
}

// Trial is one seed's run of the timeline.
type Trial struct {
	Seed int64
	// Steps has one entry per phase, in timeline order. A phase that
	// leaves fewer than two live peers ends the trial.
	Steps []Step
	// Result is the scenario engine's event accounting.
	Result *scenario.Result
	// Truncated reports that the wall-clock Budget expired before the
	// timeline finished; the measurements cover only the completed prefix.
	Truncated bool
}

// Result aggregates all trials of a run.
type Result struct {
	Opts   Options
	Trials []Trial
}

// Run plays the timeline once per seed, trials in parallel, measuring
// lookups at every phase boundary.
func Run(o Options) *Result {
	o = o.withDefaults()
	res := &Result{Opts: o, Trials: make([]Trial, len(o.Seeds))}
	runTrials(len(o.Seeds), func(slot int) { res.Trials[slot] = runTrial(o, o.Seeds[slot]) })
	return res
}

// runTrials is the worker pool of both runners: it calls trial for every
// slot in [0, n), at most GOMAXPROCS at a time, and returns when all have
// finished. Each trial writes only its own slot of the caller's result
// slice, so the results need no lock.
func runTrials(n int, trial func(slot int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			trial(slot)
		}(i)
	}
	wg.Wait()
}

func runTrial(o Options, seed int64) Trial {
	cfg := core.Defaults()
	if o.Policy != nil {
		cfg.ChildPolicy = o.Policy
	}
	cfg.ImmediateUpdates = !o.PiggybackOnly
	c := simrt.New(simrt.Options{N: o.N, Seed: seed, Config: cfg, Bulk: true, Shards: o.Shards})
	if c.Engine != nil {
		defer c.Engine.Close()
	}
	if o.Budget > 0 {
		watchdog := time.AfterFunc(o.Budget, c.Interrupt)
		defer watchdog.Stop()
	}
	c.StartAll()
	c.Run(o.WarmUp)

	eng := scenario.NewEngine(c, scenario.Options{Checkers: o.Checkers})
	trial := Trial{Seed: seed}
	rng := c.Rand()
	for _, ph := range o.Phases {
		trial.Result = eng.Play(ph)
		alive := c.AliveNodes()
		if len(alive) < 2 {
			break
		}
		step := Step{Phase: ph.Name(), Alive: len(alive), Violations: len(trial.Result.Final)}
		if k, ok := ph.(kill); ok {
			step.KillPct = k.pct
			step.Partitions = countPartitions(c)
		}
		step.PerAlgo = measureStep(c, rng, alive, o.Lookups, o.Algos)
		trial.Steps = append(trial.Steps, step)
	}
	trial.Truncated = c.Interrupted()
	return trial
}

// measureStep draws the boundary's origin/target pairs from rng and
// measures every algorithm on the same pairs, so their curves are
// comparable.
func measureStep(c *simrt.Cluster, rng *rand.Rand, alive []*core.Node, lookups int, algos []proto.Algo) map[proto.Algo]*AlgoStep {
	pairs := make([][2]*core.Node, lookups)
	for i := range pairs {
		pairs[i] = [2]*core.Node{
			alive[rng.Intn(len(alive))],
			alive[rng.Intn(len(alive))],
		}
	}
	out := make(map[proto.Algo]*AlgoStep, len(algos))
	for _, algo := range algos {
		out[algo] = measure(c, pairs, algo)
	}
	return out
}

// measure issues the lookups and advances virtual time until every one has
// resolved or timed out. On a sharded cluster each completion callback
// runs on its origin node's shard worker, so the shared tallies take a
// lock; counters and histogram merges are commutative, so completion
// order cannot leak into the results.
func measure(c *simrt.Cluster, pairs [][2]*core.Node, algo proto.Algo) *AlgoStep {
	out := &AlgoStep{Hops: &Histogram{}}
	var mu sync.Mutex
	for _, p := range pairs {
		origin, target := p[0], p[1]
		targetID := target.ID()
		origin.Lookup(targetID, algo, func(r core.LookupResult) {
			mu.Lock()
			defer mu.Unlock()
			switch {
			case r.Status == core.LookupFound && r.Best.ID == targetID:
				out.Found++
				out.Hops.Observe(r.Hops)
			case r.Status == core.LookupTimeout:
				out.Timeout++
			default:
				// NotFound, or resolved to a different owner: the ID was
				// not found.
				out.NotFound++
			}
		})
	}
	c.Run(core.LookupDeadline + time.Second)
	return out
}

// countPartitions builds the live knowledge graph (node → its live table
// candidates) and counts connected components.
func countPartitions(c *simrt.Cluster) int {
	alive := c.AliveNodes()
	index := make(map[uint64]int, len(alive))
	for i, n := range alive {
		index[n.Addr()] = i
	}
	uf := newUnionFind(len(alive))
	for i, n := range alive {
		for _, cand := range n.Table().Candidates(nil) {
			if j, ok := index[cand.Addr]; ok {
				uf.union(i, j)
			}
		}
	}
	return uf.sets
}

// --- aggregation -------------------------------------------------------------

// KillPcts returns the kill percentages present in the first trial.
func (r *Result) KillPcts() []float64 {
	if len(r.Trials) == 0 {
		return nil
	}
	out := make([]float64, 0, len(r.Trials[0].Steps))
	for _, s := range r.Trials[0].Steps {
		out = append(out, float64(s.KillPct))
	}
	return out
}

// column is the one per-step fold: for each step of the first trial it
// collects value from that step of every trial where value is defined,
// and folds them into one point (0 where none is).
func (r *Result) column(name string, value func(*Step) (float64, bool), fold func([]float64) float64) *Series {
	s := &Series{Name: name}
	if len(r.Trials) == 0 {
		return s
	}
	for i := range r.Trials[0].Steps {
		var vals []float64
		for _, tr := range r.Trials {
			if i < len(tr.Steps) {
				if v, ok := value(&tr.Steps[i]); ok {
					vals = append(vals, v)
				}
			}
		}
		y := 0.0
		if len(vals) > 0 {
			y = fold(vals)
		}
		s.Y = append(s.Y, y)
	}
	return s
}

// mean folds values into scale × their mean.
func mean(scale float64) func([]float64) float64 {
	return func(vals []float64) float64 {
		var sum float64
		for _, v := range vals {
			sum += v
		}
		return scale * sum / float64(len(vals))
	}
}

// failRate is scale × an algorithm's failed-lookup fraction at a step.
// FailRateSeries scales the mean and FailEnvelope each value: the two
// orders round differently, and each figure keeps the one it was
// recorded with.
func failRate(algo proto.Algo, scale float64) func(*Step) (float64, bool) {
	return func(st *Step) (float64, bool) {
		a, ok := st.PerAlgo[algo]
		if !ok {
			return 0, false
		}
		return scale * a.FailRate(), true
	}
}

// FailRateSeries returns the mean failed-lookup percentage per step
// (Figures A and C).
func (r *Result) FailRateSeries(algo proto.Algo) *Series {
	return r.column("fail%/"+algo.String(), failRate(algo, 1), mean(100))
}

// AvgHopsSeries returns the mean hops of successful lookups per step
// (Figures B and D).
func (r *Result) AvgHopsSeries(algo proto.Algo) *Series {
	return r.column("hops/"+algo.String(), func(st *Step) (float64, bool) {
		a, ok := st.PerAlgo[algo]
		if !ok || a.Hops.Total() == 0 {
			return 0, false
		}
		return a.Hops.Mean(), true
	}, mean(1))
}

// FailEnvelope returns the min and max failed-lookup percentage across
// trials per step (Figure E).
func (r *Result) FailEnvelope(algo proto.Algo) (lo, hi *Series) {
	return r.column("min-fail%/"+algo.String(), failRate(algo, 100), slices.Min[[]float64]),
		r.column("max-fail%/"+algo.String(), failRate(algo, 100), slices.Max[[]float64])
}

// PartitionSeries returns the mean partition count per step.
func (r *Result) PartitionSeries() *Series {
	return r.column("partitions", func(st *Step) (float64, bool) { return float64(st.Partitions), true }, mean(1))
}

// ViolationSeries returns the mean invariant-violation count per step.
func (r *Result) ViolationSeries() *Series {
	return r.column("violations", func(st *Step) (float64, bool) { return float64(st.Violations), true }, mean(1))
}

// HopSurface merges all trials' hop histograms into the Figures F–I
// surface for one algorithm.
func (r *Result) HopSurface(algo proto.Algo) *Surface {
	surf := NewSurface()
	for _, tr := range r.Trials {
		for _, st := range tr.Steps {
			if a, ok := st.PerAlgo[algo]; ok {
				surf.At(st.KillPct).Merge(a.Hops)
			}
		}
	}
	return surf
}
