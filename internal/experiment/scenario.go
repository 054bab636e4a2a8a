package experiment

import (
	"runtime"
	"time"

	"treep/internal/core"
	"treep/internal/metrics"
	"treep/internal/proto"
	"treep/internal/scenario"
	"treep/internal/simrt"
)

// ScenarioOptions configures a scripted-scenario experiment: the same
// deterministic trial-per-seed structure as the kill sweep, but the
// workload is a scenario timeline (continuous churn, flash crowds, zone
// failures, partitions) instead of the one-way decimation, and runtime
// invariant checkers sample the overlay as it runs.
type ScenarioOptions struct {
	// N is the initial network size.
	N int
	// Seeds: one deterministic trial per seed.
	Seeds []int64
	// Algos are the lookup algorithms measured after each phase.
	Algos []proto.Algo
	// Phases is the timeline every trial plays. Phases are immutable
	// values, shared safely across concurrent trials.
	Phases []scenario.Phase
	// Checkers are the invariants evaluated at each phase boundary (and on
	// SampleEvery's cadence mid-phase). Nil means scenario.AllCheckers.
	Checkers []scenario.Checker
	// SampleEvery is the mid-phase invariant sampling interval (0 = only
	// at phase boundaries).
	SampleEvery time.Duration
	// WarmUp is the steady-state run before the first phase.
	WarmUp time.Duration
	// LookupsPerPhase is the number of lookups per algorithm measured at
	// each phase boundary.
	LookupsPerPhase int
	// Parallel caps concurrent trials (default: GOMAXPROCS).
	Parallel int
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

func (o ScenarioOptions) withDefaults() ScenarioOptions {
	if o.N == 0 {
		o.N = 1000
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if len(o.Algos) == 0 {
		o.Algos = []proto.Algo{proto.AlgoG}
	}
	if o.Checkers == nil {
		o.Checkers = scenario.AllCheckers()
	}
	if o.WarmUp == 0 {
		o.WarmUp = 8 * time.Second
	}
	if o.LookupsPerPhase == 0 {
		o.LookupsPerPhase = 100
	}
	if o.Parallel == 0 {
		o.Parallel = runtime.GOMAXPROCS(0)
	}
	return o
}

// PhaseStep is the measurement taken at one phase boundary of one trial.
type PhaseStep struct {
	// Phase is the name of the phase that just finished.
	Phase string
	// Alive is the live population at the boundary.
	Alive int
	// Violations is the number of invariant violations at the boundary.
	Violations int
	// PerAlgo holds lookup measurements keyed by algorithm.
	PerAlgo map[proto.Algo]*AlgoStep
}

// ScenarioTrial is one seed's full scenario run.
type ScenarioTrial struct {
	Seed int64
	// Steps has one entry per phase, in timeline order.
	Steps []PhaseStep
	// Result is the engine's event accounting and mid-run samples.
	Result *scenario.Result
	// Truncated reports that the wall-clock Budget expired before the
	// timeline finished; the measurements cover only the completed prefix.
	Truncated bool
}

// ScenarioSweepResult aggregates all trials of a scenario experiment.
type ScenarioSweepResult struct {
	Opts   ScenarioOptions
	Trials []ScenarioTrial
}

// RunScenario executes the scenario timeline once per seed, trials in
// parallel on the worker pool, measuring lookups and invariants at every
// phase boundary.
func RunScenario(o ScenarioOptions) *ScenarioSweepResult {
	o = o.withDefaults()
	res := &ScenarioSweepResult{Opts: o, Trials: make([]ScenarioTrial, len(o.Seeds))}
	runTrials(len(o.Seeds), o.Parallel, func(slot int) { res.Trials[slot] = runScenarioTrial(o, o.Seeds[slot]) })
	return res
}

func runScenarioTrial(o ScenarioOptions, seed int64) ScenarioTrial {
	c := simrt.New(simrt.Options{
		N:      o.N,
		Seed:   seed,
		Config: core.Defaults(),
		Bulk:   true,
		Shards: o.Shards,
	})
	if c.Engine != nil {
		defer c.Engine.Close()
	}
	if o.Budget > 0 {
		watchdog := time.AfterFunc(o.Budget, c.Interrupt)
		defer watchdog.Stop()
	}
	c.StartAll()
	c.Run(o.WarmUp)

	eng := scenario.NewEngine(c, scenario.Options{
		Checkers:    o.Checkers,
		SampleEvery: o.SampleEvery,
	})
	trial := ScenarioTrial{Seed: seed}
	rng := c.Rand()
	for _, ph := range o.Phases {
		trial.Result = eng.Play(ph)
		alive := c.AliveNodes()
		step := PhaseStep{
			Phase:      ph.Name(),
			Alive:      len(alive),
			Violations: len(trial.Result.Final),
			PerAlgo:    map[proto.Algo]*AlgoStep{},
		}
		if len(alive) >= 2 {
			pairs := make([][2]*core.Node, o.LookupsPerPhase)
			for i := range pairs {
				pairs[i] = [2]*core.Node{
					alive[rng.Intn(len(alive))],
					alive[rng.Intn(len(alive))],
				}
			}
			for _, algo := range o.Algos {
				step.PerAlgo[algo] = measure(c, pairs, algo)
			}
		}
		trial.Steps = append(trial.Steps, step)
	}
	trial.Truncated = c.Interrupted()
	return trial
}

// FailRateByPhase returns the mean failed-lookup percentage per phase
// boundary across trials.
func (r *ScenarioSweepResult) FailRateByPhase(algo proto.Algo) *metrics.Series {
	s := &metrics.Series{Name: "fail%/" + algo.String()}
	if len(r.Trials) == 0 {
		return s
	}
	for i := range r.Trials[0].Steps {
		var sum float64
		var n int
		for _, tr := range r.Trials {
			if i < len(tr.Steps) {
				if a, ok := tr.Steps[i].PerAlgo[algo]; ok {
					sum += a.FailRate()
					n++
				}
			}
		}
		if n > 0 {
			s.Add(float64(i), 100*sum/float64(n))
		}
	}
	return s
}

// ViolationsByPhase returns the mean invariant-violation count per phase
// boundary across trials.
func (r *ScenarioSweepResult) ViolationsByPhase() *metrics.Series {
	s := &metrics.Series{Name: "violations"}
	if len(r.Trials) == 0 {
		return s
	}
	for i := range r.Trials[0].Steps {
		var sum float64
		var n int
		for _, tr := range r.Trials {
			if i < len(tr.Steps) {
				sum += float64(tr.Steps[i].Violations)
				n++
			}
		}
		if n > 0 {
			s.Add(float64(i), sum/float64(n))
		}
	}
	return s
}
