package experiment

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"treep/internal/overlay"
	"treep/internal/scenario"
)

// CompareBackends lists the protocols the comparative harness knows, in
// report order.
var CompareBackends = []string{"treep", "chord", "flood"}

// CompareScenarios lists the phase scripts ComparePhases can build.
var CompareScenarios = []string{"churn", "flashcrowd", "zonefail", "partition"}

// CompareOptions configures a head-to-head run: every backend plays the
// same phase script once per seed, and every (backend, seed) trial is an
// independent deterministic simulation fanned out across the worker pool.
type CompareOptions struct {
	// N is the initial population of every backend.
	N int
	// Seeds: one trial per seed per backend. Backend b with seed s and
	// backend b' with seed s absorb the identical workload timeline.
	Seeds []int64
	// Backends is the subset of CompareBackends to run.
	Backends []string
	// Scenario labels the records; Phases is the script. When Phases is
	// nil it is built from Scenario via ComparePhases.
	Scenario string
	Phases   []scenario.Phase
	// WarmUp is the steady-state run before the first phase.
	WarmUp time.Duration
	// LookupsPerPhase is the number of lookups measured at each boundary.
	LookupsPerPhase int
}

func (o CompareOptions) withDefaults() (CompareOptions, error) {
	if o.N == 0 {
		o.N = 1000
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1, 2, 3}
	}
	if len(o.Backends) == 0 {
		o.Backends = append([]string(nil), CompareBackends...)
	}
	for _, b := range o.Backends {
		if err := validateBackend(b); err != nil {
			return o, err
		}
	}
	if o.Scenario == "" {
		o.Scenario = "churn"
	}
	if o.Phases == nil {
		phases, err := ComparePhases(o.Scenario, o.N)
		if err != nil {
			return o, err
		}
		o.Phases = phases
	}
	for _, ph := range o.Phases {
		if !overlay.Supported(ph) {
			return o, fmt.Errorf("phase %q is not supported by the comparative interpreter", ph.Name())
		}
	}
	if o.WarmUp == 0 {
		o.WarmUp = 8 * time.Second
	}
	if o.LookupsPerPhase == 0 {
		o.LookupsPerPhase = 200
	}
	return o, nil
}

// ComparePhases builds the named protocol-agnostic phase script for an
// initial population of n: "churn" (arrivals and departures at a rate
// scaled to n, then settle), "flashcrowd" (n/10 joins in a burst),
// "zonefail" (a contiguous 15% of the ID space dies), or "partition"
// (mid-space split, hold, heal).
func ComparePhases(name string, n int) ([]scenario.Phase, error) {
	settle := 10 * time.Second
	switch name {
	case "churn":
		rate := float64(n) / 500
		if rate < 1 {
			rate = 1
		}
		return []scenario.Phase{
			scenario.Churn{For: 20 * time.Second, JoinRate: rate, LeaveRate: rate},
			scenario.Settle{For: settle},
		}, nil
	case "flashcrowd":
		return []scenario.Phase{
			scenario.FlashCrowd{Joins: n / 10, Over: 5 * time.Second},
			scenario.Settle{For: settle},
		}, nil
	case "zonefail":
		return []scenario.Phase{
			scenario.ZoneFailure{Zone: scenario.ZoneFraction(0.40, 0.55), Settle: settle},
		}, nil
	case "partition":
		return []scenario.Phase{
			scenario.PartitionHeal{Hold: 10 * time.Second, Heal: settle},
		}, nil
	}
	return nil, fmt.Errorf("unknown scenario %q (want %s)", name, strings.Join(CompareScenarios, ", "))
}

// validateBackend checks a backend name against the known set.
func validateBackend(name string) error {
	for _, b := range CompareBackends {
		if b == name {
			return nil
		}
	}
	return fmt.Errorf("unknown backend %q (want %s)", name, strings.Join(CompareBackends, ", "))
}

// newBackendSeeded constructs one backend instance of n nodes.
func newBackendSeeded(name string, n int, seed int64) (overlay.Overlay, error) {
	switch name {
	case "treep":
		return overlay.NewTreeP(n, seed), nil
	case "chord":
		return overlay.NewChord(n, seed), nil
	case "flood":
		return overlay.NewFlood(n, seed), nil
	}
	return nil, validateBackend(name)
}

// CompareResult holds every trial's per-phase records, sorted by
// (backend, seed, phase index) so exports are stable regardless of trial
// completion order.
type CompareResult struct {
	Opts    CompareOptions
	Records []PhaseRecord
}

// RunCompare drives every configured backend through the same phase
// script once per seed and returns the per-phase records. Trials run
// concurrently; records come back sorted by (backend, seed, phase).
func RunCompare(o CompareOptions) (*CompareResult, error) {
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	res := &CompareResult{Opts: o}

	type trialKey struct {
		backend string
		seed    int64
	}
	var keys []trialKey
	for _, b := range o.Backends {
		for _, s := range o.Seeds {
			keys = append(keys, trialKey{b, s})
		}
	}
	records := make([][]PhaseRecord, len(keys))
	errs := make([]error, len(keys))
	runTrials(len(keys), func(slot int) {
		records[slot], errs[slot] = runCompareTrial(o, keys[slot].backend, keys[slot].seed)
	})

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("trial %s/seed=%d: %w", keys[i].backend, keys[i].seed, err)
		}
	}
	for _, rs := range records {
		res.Records = append(res.Records, rs...)
	}
	sortRecords(res.Records)
	return res, nil
}

// sortRecords orders records by (backend, seed, phase index).
func sortRecords(rs []PhaseRecord) {
	slices.SortStableFunc(rs, func(a, b PhaseRecord) int {
		return cmp.Or(strings.Compare(a.Backend, b.Backend), cmp.Compare(a.Seed, b.Seed), cmp.Compare(a.PhaseIdx, b.PhaseIdx))
	})
}

// runCompareTrial plays the phase script against one backend with one
// seed, measuring at every phase boundary. The workload RNG is seeded
// from the trial seed alone, so every backend sees the same event
// timeline and the same lookup draws.
func runCompareTrial(o CompareOptions, backend string, seed int64) ([]PhaseRecord, error) {
	ov, err := newBackendSeeded(backend, o.N, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	ov.Run(o.WarmUp)

	var out []PhaseRecord
	for idx, ph := range o.Phases {
		before := ov.NetStats()
		phaseStart := ov.Now()
		played, err := overlay.Play(ov, rng, ph)
		if err != nil {
			// withDefaults validated the script, so this only fires when
			// Supported and the interpreter disagree — fail loudly rather
			// than export records with silently missing rows.
			return nil, err
		}
		ov.MaintenanceTick()
		maint := ov.NetStats()
		phaseSecs := (ov.Now() - phaseStart).Seconds()

		rec := PhaseRecord{
			Backend:    ov.Name(),
			Scenario:   o.Scenario,
			Phase:      ph.Name(),
			PhaseIdx:   idx,
			Seed:       seed,
			N:          o.N,
			Alive:      ov.AliveCount(),
			Joins:      played.Joins,
			Leaves:     played.Leaves,
			ZoneKilled: played.ZoneKilled,
			MaintMsgs:  maint.Sent - before.Sent,
			MaintBytes: maint.Bytes - before.Bytes,
			PhaseSecs:  phaseSecs,
		}
		measureLookups(ov, rng, o.LookupsPerPhase, &rec)
		rec.StateSize = ov.StateSize()
		if rec.Alive > 0 {
			rec.StatePerNode = float64(rec.StateSize) / float64(rec.Alive)
		}
		out = append(out, rec)
	}
	return out, nil
}

// measureLookups issues lookups between random live pairs, advances
// virtual time until all have resolved or timed out, and fills the
// record's lookup fields plus the measurement-window traffic delta.
func measureLookups(ov overlay.Overlay, rng *rand.Rand, lookups int, rec *PhaseRecord) {
	ids := ov.AliveIDs()
	if len(ids) < 2 {
		return
	}
	before := ov.NetStats()
	hops := &Histogram{}
	var latencySum time.Duration
	for i := 0; i < lookups; i++ {
		origin := rng.Intn(len(ids))
		target := ids[rng.Intn(len(ids))]
		ov.Lookup(origin, target, func(r overlay.Outcome) {
			rec.Lookups++
			if r.Found {
				rec.Found++
				hops.Observe(r.Hops)
				latencySum += r.Latency
			}
		})
	}
	window := ov.LookupWindow()
	ov.Run(window)
	after := ov.NetStats()

	rec.LookupMsgs = after.Sent - before.Sent
	rec.LookupBytes = after.Bytes - before.Bytes
	rec.WindowSecs = window.Seconds()
	if rec.Lookups > 0 {
		rec.FailPct = 100 * float64(rec.Lookups-rec.Found) / float64(rec.Lookups)
		rec.MsgsPerLookup = float64(rec.LookupMsgs) / float64(rec.Lookups)
		// Subtract the phase's maintenance rate from the window to
		// estimate pure routing cost (background maintenance keeps
		// running while lookups resolve).
		net := float64(rec.LookupMsgs)
		if rec.PhaseSecs > 0 {
			net -= float64(rec.MaintMsgs) / rec.PhaseSecs * rec.WindowSecs
		}
		if net < 0 {
			net = 0
		}
		rec.NetMsgsPerLookup = net / float64(rec.Lookups)
	}
	if rec.Found > 0 {
		rec.HopMean = hops.Mean()
		rec.HopP50 = hops.Percentile(0.50)
		rec.HopP99 = hops.Percentile(0.99)
		rec.LatencyMeanMs = float64(latencySum.Milliseconds()) / float64(rec.Found)
	}
}

// CompareSummary aggregates a result across trials: one row per
// (backend, phase) with trial means, rendered as a TSV table in the style
// of the paper's figures.
func CompareSummary(res *CompareResult) string {
	type key struct {
		backend string
		idx     int
	}
	type agg struct {
		phase                        string
		trials                       int
		alive, failPct, hops, latMs  float64
		maintMsgs, lookupMsgs, state float64
		netPerLookup                 float64
		// measuredN / foundN count the records contributing to the
		// lookup-conditioned columns: a trial where nothing was measured
		// (or nothing succeeded) must not drag those means toward zero.
		measuredN, foundN int
	}
	byKey := map[key]*agg{}
	for i := range res.Records {
		r := &res.Records[i]
		k := key{r.Backend, r.PhaseIdx}
		a := byKey[k]
		if a == nil {
			a = &agg{phase: r.Phase}
			byKey[k] = a
		}
		a.trials++
		a.alive += float64(r.Alive)
		a.maintMsgs += float64(r.MaintMsgs)
		a.lookupMsgs += float64(r.LookupMsgs)
		a.state += r.StatePerNode
		if r.Lookups > 0 {
			a.measuredN++
			a.failPct += r.FailPct
			a.netPerLookup += r.NetMsgsPerLookup
		}
		if r.Found > 0 {
			a.foundN++
			a.hops += r.HopMean
			a.latMs += r.LatencyMeanMs
		}
	}
	keys := make([]key, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		bi := backendRank(keys[i].backend)
		bj := backendRank(keys[j].backend)
		if bi != bj {
			return bi < bj
		}
		return keys[i].idx < keys[j].idx
	})

	var b strings.Builder
	b.WriteString("backend\tphase\ttrials\talive\tfail%\thops\tlat(ms)\tmaint-msgs\tlookup-msgs\tnet-msgs/lookup\tstate/node\n")
	for _, k := range keys {
		a := byKey[k]
		n := float64(a.trials)
		mean := func(sum float64, count int) float64 {
			if count == 0 {
				return 0
			}
			return sum / float64(count)
		}
		fmt.Fprintf(&b, "%s\t%s\t%d\t%.0f\t%.1f\t%.2f\t%.0f\t%.0f\t%.0f\t%.1f\t%.1f\n",
			k.backend, a.phase, a.trials, a.alive/n,
			mean(a.failPct, a.measuredN), mean(a.hops, a.foundN), mean(a.latMs, a.foundN),
			a.maintMsgs/n, a.lookupMsgs/n, mean(a.netPerLookup, a.measuredN), a.state/n)
	}
	return b.String()
}

func backendRank(name string) int {
	for i, b := range CompareBackends {
		if b == name {
			return i
		}
	}
	return len(CompareBackends)
}
