// Package experiment reproduces the TreeP paper's evaluation (§IV) and
// extends it: the kill sweep that drives Figures A–I (RunKillSweep), the
// analytic checks of §III.e (height law, routing-table sizes), the
// ablations documented in DESIGN.md, the scripted-scenario experiments
// (RunScenario), and the cross-protocol comparative runner (RunCompare)
// that plays TreeP, Chord and flooding through identical scenario
// scripts from identical seeds. Each trial is an independent
// deterministic simulation; trials run concurrently on a worker pool.
package experiment

import (
	"runtime"
	"sync"
	"time"

	"treep/internal/core"
	"treep/internal/metrics"
	"treep/internal/nodeprof"
	"treep/internal/proto"
	"treep/internal/simrt"
)

// Options configures a kill sweep (§IV: "we randomly disconnected some
// nodes at a rate of 5% ... until the number of the remaining nodes
// reached a threshold of 5% of the initial topology").
type Options struct {
	// N is the network size.
	N int
	// Seeds: one deterministic trial per seed.
	Seeds []int64
	// Algos are the lookup algorithms measured each step.
	Algos []proto.Algo
	// Policy is the max-children policy (fixed nc=4 vs capacity-driven —
	// the paper's two cases). Nil means fixed nc=4.
	Policy nodeprof.ChildPolicy
	// KillStep is the fraction of the initial population killed per step.
	KillStep float64
	// MaxKill stops the sweep once this fraction has been killed.
	MaxKill float64
	// WarmUp is the initial steady-state run before the first kill.
	WarmUp time.Duration
	// Settle is the repair window after each kill step, before measuring.
	// The paper measures while the network is still absorbing the blow;
	// small values reproduce its failure levels, large values show the
	// self-healing limit.
	Settle time.Duration
	// LookupsPerStep is the number of lookups per algorithm per step.
	LookupsPerStep int
	// PiggybackOnly disables immediate update pushes (ABL-2).
	PiggybackOnly bool
	// Parallel caps concurrent trials (default: GOMAXPROCS).
	Parallel int
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
	if o.Policy == nil {
		o.Policy = nodeprof.FixedPolicy{NC: 4}
	}
	if o.KillStep == 0 {
		o.KillStep = 0.05
	}
	if o.MaxKill == 0 {
		o.MaxKill = 0.80
	}
	if o.WarmUp == 0 {
		o.WarmUp = 8 * time.Second
	}
	if o.Settle == 0 {
		o.Settle = 4 * time.Second
	}
	if o.LookupsPerStep == 0 {
		o.LookupsPerStep = 100
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// AlgoStep holds one algorithm's measurements at one kill level.
type AlgoStep struct {
	Found    int
	NotFound int
	Timeout  int
	// Hops is the hop histogram of successful lookups.
	Hops *metrics.Histogram
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

// Step is one kill level of one trial.
type Step struct {
	// KillPct is the cumulative percentage of the initial population
	// killed before this measurement.
	KillPct int
	// Alive is the surviving node count.
	Alive int
	// Partitions is the number of connected components of the live
	// knowledge graph (Figure E attributes its spike to partitioning).
	Partitions int
	// PerAlgo holds measurements keyed by lookup algorithm.
	PerAlgo map[proto.Algo]*AlgoStep
}

// Trial is one seed's full sweep.
type Trial struct {
	Seed  int64
	Steps []Step
}

// SweepResult aggregates all trials of a sweep.
type SweepResult struct {
	Opts   Options
	Trials []Trial
}

// RunKillSweep executes the sweep, one deterministic trial per seed,
// trials in parallel.
func RunKillSweep(o Options) *SweepResult {
	o = o.withDefaults()
	res := &SweepResult{Opts: o, Trials: make([]Trial, len(o.Seeds))}
	runTrials(len(o.Seeds), o.Parallel, func(slot int) { res.Trials[slot] = runTrial(o, o.Seeds[slot]) })
	return res
}

// runTrials is the worker pool of all three runners: it calls trial for
// every slot in [0, n), at most parallel at a time, and returns when all
// have finished. Each trial writes only its own slot of the caller's
// result slice, so the results need no lock.
func runTrials(n, parallel int, trial func(slot int)) {
	var wg sync.WaitGroup
	sem := make(chan struct{}, parallel)
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
	cfg.ChildPolicy = o.Policy
	cfg.ImmediateUpdates = !o.PiggybackOnly
	c := simrt.New(simrt.Options{
		N:      o.N,
		Seed:   seed,
		Config: cfg,
		Bulk:   true,
	})
	c.StartAll()
	c.Run(o.WarmUp)

	trial := Trial{Seed: seed}
	rng := c.Rand()
	killed := 0

	for frac := o.KillStep; frac <= o.MaxKill+1e-9; frac += o.KillStep {
		target := int(frac * float64(o.N))
		for killed < target {
			n := c.Nodes[rng.Intn(len(c.Nodes))]
			if c.Alive(n) {
				c.Kill(n)
				killed++
			}
		}
		c.Run(o.Settle)

		alive := c.AliveNodes()
		if len(alive) < 2 {
			break
		}
		step := Step{
			KillPct:    int(frac*100 + 0.5),
			Alive:      len(alive),
			Partitions: countPartitions(c),
			PerAlgo:    map[proto.Algo]*AlgoStep{},
		}

		// The same origin/target pairs are measured under every algorithm
		// so their curves are comparable.
		pairs := make([][2]*core.Node, o.LookupsPerStep)
		for i := range pairs {
			pairs[i] = [2]*core.Node{
				alive[rng.Intn(len(alive))],
				alive[rng.Intn(len(alive))],
			}
		}
		for _, algo := range o.Algos {
			step.PerAlgo[algo] = measure(c, pairs, algo)
		}
		trial.Steps = append(trial.Steps, step)
	}
	return trial
}

// measure issues the lookups and advances virtual time until every one has
// resolved or timed out. On a sharded cluster each completion callback
// runs on its origin node's shard worker, so the shared tallies take a
// lock; counters and histogram merges are commutative, so completion
// order cannot leak into the results.
func measure(c *simrt.Cluster, pairs [][2]*core.Node, algo proto.Algo) *AlgoStep {
	out := &AlgoStep{Hops: &metrics.Histogram{}}
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
	timeout := c.Nodes[0].Config().LookupTimeout
	c.Run(timeout + time.Second)
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
	uf := metrics.NewUnionFind(len(alive))
	for i, n := range alive {
		for _, cand := range n.Table().Candidates(nil) {
			if j, ok := index[cand.Addr]; ok {
				uf.Union(i, j)
			}
		}
	}
	return uf.Sets()
}

// --- aggregation -------------------------------------------------------------

// KillPcts returns the kill percentages present in the first trial.
func (r *SweepResult) KillPcts() []float64 {
	if len(r.Trials) == 0 {
		return nil
	}
	out := make([]float64, 0, len(r.Trials[0].Steps))
	for _, s := range r.Trials[0].Steps {
		out = append(out, float64(s.KillPct))
	}
	return out
}

// FailRateSeries returns mean failed-lookup percentage per kill level
// (Figures A and C).
func (r *SweepResult) FailRateSeries(algo proto.Algo) *metrics.Series {
	s := &metrics.Series{Name: "fail%/" + algo.String()}
	r.perStep(func(killPct int, steps []*AlgoStep) {
		var sum float64
		for _, st := range steps {
			sum += st.FailRate()
		}
		s.Add(float64(killPct), 100*sum/float64(len(steps)))
	}, algo)
	return s
}

// AvgHopsSeries returns mean hops of successful lookups per kill level
// (Figures B and D).
func (r *SweepResult) AvgHopsSeries(algo proto.Algo) *metrics.Series {
	s := &metrics.Series{Name: "hops/" + algo.String()}
	r.perStep(func(killPct int, steps []*AlgoStep) {
		var sum float64
		var n int
		for _, st := range steps {
			if st.Hops.Total() > 0 {
				sum += st.Hops.Mean()
				n++
			}
		}
		if n == 0 {
			s.Add(float64(killPct), 0)
			return
		}
		s.Add(float64(killPct), sum/float64(n))
	}, algo)
	return s
}

// FailEnvelope returns the min and max failed-lookup percentage across
// trials per kill level (Figure E).
func (r *SweepResult) FailEnvelope(algo proto.Algo) (min, max *metrics.Series) {
	min = &metrics.Series{Name: "min-fail%/" + algo.String()}
	max = &metrics.Series{Name: "max-fail%/" + algo.String()}
	r.perStep(func(killPct int, steps []*AlgoStep) {
		var mm metrics.MinMax
		for _, st := range steps {
			mm.Observe(100 * st.FailRate())
		}
		min.Add(float64(killPct), mm.Min())
		max.Add(float64(killPct), mm.Max())
	}, algo)
	return min, max
}

// HopSurface merges all trials' hop histograms into the Figures F–I
// surface for one algorithm.
func (r *SweepResult) HopSurface(algo proto.Algo) *metrics.Surface {
	surf := metrics.NewSurface()
	for _, tr := range r.Trials {
		for _, st := range tr.Steps {
			if a, ok := st.PerAlgo[algo]; ok {
				surf.At(st.KillPct).Merge(a.Hops)
			}
		}
	}
	return surf
}

// PartitionSeries returns the mean partition count per kill level.
func (r *SweepResult) PartitionSeries() *metrics.Series {
	s := &metrics.Series{Name: "partitions"}
	if len(r.Trials) == 0 {
		return s
	}
	for i := range r.Trials[0].Steps {
		var sum float64
		var n int
		for _, tr := range r.Trials {
			if i < len(tr.Steps) {
				sum += float64(tr.Steps[i].Partitions)
				n++
			}
		}
		s.Add(float64(r.Trials[0].Steps[i].KillPct), sum/float64(n))
	}
	return s
}

// perStep calls fn once per kill level with that level's AlgoSteps across
// trials.
func (r *SweepResult) perStep(fn func(killPct int, steps []*AlgoStep), algo proto.Algo) {
	if len(r.Trials) == 0 {
		return
	}
	for i, ref := range r.Trials[0].Steps {
		var steps []*AlgoStep
		for _, tr := range r.Trials {
			if i < len(tr.Steps) {
				if a, ok := tr.Steps[i].PerAlgo[algo]; ok {
					steps = append(steps, a)
				}
			}
		}
		if len(steps) > 0 {
			fn(ref.KillPct, steps)
		}
	}
}
