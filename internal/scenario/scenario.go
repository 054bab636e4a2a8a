// Package scenario drives a simrt.Cluster through scripted dynamic
// workloads and checks runtime invariants of the overlay mid-run.
//
// The paper's evaluation (§IV) is a one-way kill sweep: nodes are removed
// until a fraction of the initial population remains. Real overlays are
// judged under *dynamic* operation — interleaved joins and departures,
// mass arrivals, correlated regional failures, partitions that heal. A
// Scenario is a timeline of such phases played against a live cluster;
// between and during phases the engine samples invariant checkers
// (invariants.go) that double as test oracles for every stress and
// property test in the repository.
//
// Phases compose freely:
//
//	eng := scenario.NewEngine(cluster, scenario.Options{
//		Checkers:    scenario.AllCheckers(),
//		SampleEvery: 2 * time.Second,
//	})
//	res := eng.Play(
//		scenario.Settle{For: 8 * time.Second},
//		scenario.Churn{For: 30 * time.Second, JoinRate: 2, LeaveRate: 2},
//		scenario.Settle{For: 10 * time.Second},
//	)
//	if len(res.Final) > 0 { ... }
package scenario

import (
	"math/rand"
	"time"

	"treep/internal/idspace"
	"treep/internal/simrt"
)

// maxDuration is "never" for next-event bookkeeping.
const maxDuration = time.Duration(1<<63 - 1)

// Phase is one segment of a scenario timeline. A phase advances the
// cluster's virtual clock as it runs; the engine samples invariants on the
// way through.
type Phase interface {
	// Name identifies the phase in samples and logs.
	Name() string
	// Run executes the phase against the engine's cluster.
	Run(e *Engine)
}

// Options configures an Engine.
type Options struct {
	// Checkers are the invariants sampled during the run and evaluated at
	// the end. Nil means AllCheckers is not implied — no checking.
	Checkers []Checker
	// SampleEvery is the virtual-time interval between mid-run invariant
	// samples. Zero disables sampling (Final is still evaluated by Play).
	SampleEvery time.Duration
	// FinalGrace and FinalChecks implement the persistence filter for the
	// final evaluation: mid-run violations are expected while the overlay
	// absorbs churn, persistent ones are not. When the last phase ends
	// with violations and FinalChecks > 0, the engine advances FinalGrace
	// of extra virtual time and re-checks, up to FinalChecks times,
	// reporting only what the overlay failed to repair. Zero FinalChecks
	// keeps the single strict boundary check (the experiment harness
	// relies on exact phase-boundary timing).
	FinalGrace  time.Duration
	FinalChecks int
	// Storage enables the DHT workload phases (StoreRecords,
	// StorageWorkload) and the durability checkers: it carries the
	// per-node services and the ledger of written records. Nodes the
	// scenario spawns are attached to it automatically.
	Storage *Storage
}

// Sample is one mid-run invariant evaluation.
type Sample struct {
	// At is the virtual time of the sample.
	At time.Duration
	// Phase is the name of the phase that was running.
	Phase string
	// Alive is the live population at the sample.
	Alive int
	// Violations holds whatever the checkers found. Mid-run violations are
	// expected while the overlay absorbs churn; persistent ones are not.
	Violations []Violation
}

// Result aggregates one scenario run.
type Result struct {
	// Samples are the mid-run invariant evaluations in time order.
	Samples []Sample
	// Final holds the violations found after the last phase completed.
	Final []Violation
	// Joins counts nodes spawned and bootstrapped into the overlay.
	Joins int
	// Leaves counts nodes fail-stopped by churn.
	Leaves int
	// ZoneKilled counts nodes fail-stopped by zone failures.
	ZoneKilled int
	// Revived counts nodes brought back by revival waves.
	Revived int
	// Events is the kernel's executed-event count when Play returned,
	// the denominator of the substrate's events/sec scaling numbers.
	Events uint64
}

// Engine plays phases against a cluster and samples invariants.
type Engine struct {
	C *simrt.Cluster

	opts       Options
	rng        *rand.Rand
	res        Result
	curPhase   string
	nextSample time.Duration
	// ctx is the shared invariant-checking context, reset per pass so all
	// checkers in one CheckNow share a single sorted alive-list and the
	// walk scratch buffers.
	ctx Ctx
}

// NewEngine binds an engine to a cluster. Scenario randomness (which node
// leaves, which bootstrap a reviver uses) draws from a dedicated kernel
// stream, so runs are reproducible from the cluster seed.
func NewEngine(c *simrt.Cluster, opts Options) *Engine {
	e := &Engine{C: c, opts: opts, rng: c.Stream(0x7363656e)} // "scen"
	if opts.SampleEvery > 0 {
		e.nextSample = c.Now() + opts.SampleEvery
	}
	return e
}

// Play runs the phases in order, evaluates the checkers one final time
// (with the configured persistence filter), and returns the accumulated
// result.
func (e *Engine) Play(phases ...Phase) *Result {
	for _, p := range phases {
		e.curPhase = p.Name()
		p.Run(e)
	}
	final := e.CheckNow()
	grace := e.opts.FinalGrace
	if grace <= 0 {
		grace = 2 * time.Second
	}
	for retry := 0; len(final) > 0 && retry < e.opts.FinalChecks; retry++ {
		e.Run(grace)
		final = e.CheckNow()
	}
	e.res.Final = final
	e.res.Events = e.C.Events()
	return &e.res
}

// Run is the one-shot convenience: build an engine, play the phases.
func Run(c *simrt.Cluster, opts Options, phases ...Phase) *Result {
	return NewEngine(c, opts).Play(phases...)
}

// CheckNow evaluates every configured checker against the current overlay
// state and returns the violations. All checkers in one pass share a
// cached sorted alive-list instead of each re-sorting the cluster.
func (e *Engine) CheckNow() []Violation {
	e.ctx.reset(e.C, e.opts.Storage)
	var out []Violation
	for _, ch := range e.opts.Checkers {
		out = append(out, ch.Check(&e.ctx)...)
	}
	return out
}

// Now implements World.
func (e *Engine) Now() time.Duration { return e.C.Now() }

// Run implements World: it moves virtual time forward by d, taking
// invariant samples on the configured cadence.
func (e *Engine) Run(d time.Duration) { e.advanceUntil(e.C.Now() + d) }

// advanceUntil moves virtual time to t (absolute), sampling on the way.
// After a wall-clock Interrupt the cluster clock freezes, so the loop
// checks the flag explicitly rather than spinning on a time that will
// never arrive.
func (e *Engine) advanceUntil(t time.Duration) {
	for e.C.Now() < t && !e.C.Interrupted() {
		next := t
		if e.opts.SampleEvery > 0 && e.nextSample < next {
			next = e.nextSample
		}
		e.C.RunUntil(next)
		if e.opts.SampleEvery > 0 && e.C.Now() >= e.nextSample {
			e.takeSample()
			e.nextSample = e.C.Now() + e.opts.SampleEvery
		}
	}
}

func (e *Engine) takeSample() {
	e.res.Samples = append(e.res.Samples, Sample{
		At:         e.C.Now(),
		Phase:      e.curPhase,
		Alive:      len(e.C.AliveNodes()),
		Violations: e.CheckNow(),
	})
}

// Join implements World: it spawns one node and bootstraps it through a
// live peer; with storage enabled the joiner gets its DHT service
// immediately, so it participates in replication (and can be handed
// ownership) from its first tick.
func (e *Engine) Join() bool {
	n := e.C.SpawnJoin()
	if n == nil {
		return false
	}
	e.res.Joins++
	if e.opts.Storage != nil {
		e.opts.Storage.Attach(n)
	}
	return true
}

// Leave implements World: it fail-stops a random live node, never
// shrinking below two.
func (e *Engine) Leave() bool {
	alive := e.C.AliveNodes()
	if len(alive) <= 2 {
		return false
	}
	e.C.Kill(alive[e.rng.Intn(len(alive))])
	e.res.Leaves++
	return true
}

// KillZone implements World.
func (e *Engine) KillZone(zone idspace.Region) int {
	killed := 0
	for _, n := range e.C.AliveNodes() {
		if zone.Contains(n.ID()) {
			e.C.Kill(n)
			killed++
		}
	}
	e.res.ZoneKilled += killed
	return killed
}

// Partition implements World.
func (e *Engine) Partition(split idspace.ID) { e.C.Partition(split) }

// Heal implements World.
func (e *Engine) Heal() { e.C.Heal() }
