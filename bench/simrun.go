package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"treep/internal/scenario"
)

// simRun is one complete pass over a simulated workload: set-up(s),
// optional fault phase, measured window, end-state check.
type simRun struct {
	spec      simSpec
	setups    []setupTimes // every complete set-up made; the last one was measured
	heapBytes uint64       // HeapAlloc after set-up and two collections
	fault     faultResult
	win       windowResult
	// endViolations counts every invariant violation on the final
	// snapshot; endStructural those of the structural invariants (ring,
	// tessellation, parent/child) that stayed through the whole grace.
	endViolations, endStructural int
	checkMs                      float64
	checks                       int
	tr                           *tracer
	prof                         []byte
}

// runSim makes `setups` complete set-ups (the last is kept and measured)
// and drives the workload. A non-nil tracer makes it the traced pass.
func runSim(spec simSpec, seed int64, setups int, tr *tracer) (*simRun, error) {
	run := &simRun{spec: spec, tr: tr}
	var sc *simCluster
	for i := 0; i < setups; i++ {
		sc = nil // the previous overlay is garbage before the next is built
		runtime.GC()
		var st setupTimes
		var err error
		if sc, st, err = setupSim(spec, tr); err != nil {
			return nil, err
		}
		run.setups = append(run.setups, st)
	}
	if tr != nil {
		tr.vclock = sc.c.Now
		sc.prof = &bytes.Buffer{}
	}
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	run.heapBytes = m.HeapAlloc

	if spec.zoneKill {
		run.fault = sc.zoneKill()
		run.checks, run.checkMs = run.fault.checks, float64(run.fault.checkHost)/float64(time.Millisecond)
	}
	run.win = sc.runWindow(spec, seed, genOps(spec, seed))
	// End state. The checkers are eventually-consistent oracles and the
	// overlay never stops re-electing, so at any instant some peer is
	// between parents. What must not happen is one violation staying:
	// a structural violation of the final snapshot fails the run only if
	// the same violation is still there in every re-check of the grace.
	persisting := map[scenario.Violation]bool{}
	for try := 0; try <= endGraceChecks; try++ {
		if try > 0 {
			sc.c.Run(endGrace)
		}
		found, host := sc.checkInvariants()
		run.checks++
		run.checkMs += float64(host) / float64(time.Millisecond)
		now := map[scenario.Violation]bool{}
		for _, v := range found {
			if v.Checker != "lookup-loop-freedom" && (try == 0 || persisting[v]) {
				now[v] = true
			}
		}
		if try == 0 {
			run.endViolations = len(found)
		}
		if persisting = now; len(persisting) == 0 {
			break
		}
	}
	run.endStructural = len(persisting)
	if sc.prof != nil {
		run.prof = sc.prof.Bytes()
	}
	return run, nil
}

// A structural violation on the final snapshot is re-checked this many
// times, endGrace of virtual time apart, before it fails the run.
const (
	endGraceChecks = 3
	endGrace       = 2 * time.Second
)

// floorStrata is how many equal-work groups the slices are split into.
const floorStrata = 8

// stratifiedFloor estimates the quiet-box host time of the whole window
// in ms. Maintenance timers fire in bursts (every peer's keep-alive on
// the same virtual instant), so slices of equal virtual length do very
// unequal work, and a plain p10 over all slices would report the idle
// slices only. Slices are therefore ranked by their exact event count
// and cut into floorStrata groups of equal size: slices in one group did
// the same amount of work, the quiet floor (p10) is taken inside each
// group, and the groups are added up again.
func stratifiedFloor(sliceMs, sliceEvents []float64) float64 {
	n := len(sliceMs)
	if n == 0 {
		return 0
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return sliceEvents[idx[a]] < sliceEvents[idx[b]] })
	groups := floorStrata
	if n < 4*groups {
		groups = 1 + n/8
	}
	total := 0.0
	for g := 0; g < groups; g++ {
		lo, hi := g*n/groups, (g+1)*n/groups
		if lo == hi {
			continue
		}
		costs := make([]float64, 0, hi-lo)
		for _, i := range idx[lo:hi] {
			costs = append(costs, sliceMs[i])
		}
		total += quietFloor(costs) * float64(hi-lo)
	}
	return total
}

// highQuantile is the latency tail reported as "p99": the 99th
// percentile when at least ten samples lie beyond it, else the highest
// percentile that still has ten beyond.
func highQuantile(xs []float64) float64 {
	q := 0.99
	if n := len(xs); n < 1000 && n > 10 {
		q = 1 - 10/float64(n)
	}
	return quantile(xs, q)
}

// endToEndValues derives the end-to-end metrics of a simulated run.
func (r *simRun) endToEndValues() values {
	w := &r.win
	totals := make([]float64, len(r.setups))
	for i, s := range r.setups {
		totals[i] = s.total().Seconds()
	}
	return values{
		"setup_s":             median(totals),
		"op_ok_pct":           100 * float64(w.okOps+w.readBackOK) / float64(w.attempted()),
		"op_p50_ms":           quantile(w.latencyMs, 0.5),
		"op_p99_ms":           highQuantile(w.latencyMs),
		"mean_hops":           float64(w.hopsSum) / float64(w.hopsN),
		"msgs_per_node_s":     float64(w.msgs) / (w.liveMean * w.virtual.Seconds()),
		"allocs_per_op":       float64(w.mallocs) / float64(w.ops),
		"heap_bytes_per_node": float64(r.heapBytes) / float64(r.spec.peers),
	}
}

// exactKey is the fingerprint of a run's virtual-time outcome: the
// traced pass must reproduce the untraced one's digit for digit, or the
// trace hook changed behaviour.
func (r *simRun) exactKey() string {
	w := &r.win
	return fmt.Sprintf("ops=%d ok=%d abandoned=%d p50=%v p99=%v hops=%d/%d msgs=%d events=%d attempts=%d reconverge=%v",
		w.ops, w.okOps, w.abandoned, quantile(w.latencyMs, 0.5), highQuantile(w.latencyMs), w.hopsSum, w.hopsN,
		w.msgs, w.events, w.attempts, r.fault.reconverge)
}

// perLayerValues derives the per-layer metrics from the traced pass r
// and the untraced reference pass ref of the same seed.
func (r *simRun) perLayerValues(ref *simRun) (values, error) {
	v := values{}
	w := &r.win
	vs := w.virtual.Seconds()
	nodeSeconds := w.liveMean * vs

	// CPU ledger.
	samples, err := decodeProfile(r.prof)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	pct, _ := cpuLedger(samples)
	for row, p := range pct {
		v[row+".cpu_pct"] = p
	}

	// Message ledger.
	led := &r.tr.led
	classes := led.byClass()
	for _, c := range []string{"keepalive", "hierarchy", "repair", "other"} {
		v["proto."+c+"_msgs_per_node_s"] = float64(classes[c]) / nodeSeconds
	}
	v["proto.lookup_msgs_per_op"] = float64(classes["lookup"]) / float64(w.ops)
	v["proto.dht_msgs_per_op"] = float64(classes["dht"]) / float64(w.ops)
	v["proto.bytes_per_msg"] = float64(led.bytes) / float64(led.sends)
	v["netsim.sent_to_dead_pct"] = 100 * float64(led.toDead) / float64(led.sends)
	var load []float64
	sum := 0.0
	for _, h := range led.handled {
		if h > 0 {
			load = append(load, float64(h))
			sum += float64(h)
		}
	}
	mean := sum / float64(len(load))
	v["core.node_load_p99_x"] = quantile(load, 0.99) / mean
	v["core.node_load_max_x"] = quantile(load, 1) / mean

	// Overlay behaviour.
	v["core.lookup_attempt_fail_pct"] = 0
	if w.attempts > 0 {
		v["core.lookup_attempt_fail_pct"] = 100 * float64(w.attemptFails) / float64(w.attempts)
	}
	v["scenario.reconverge_s"] = r.fault.reconverge.Seconds()
	v["scenario.end_violations"] = float64(r.endViolations)
	v["scenario.check_ms"] = r.checkMs / float64(r.checks)

	// Kernel. Host figures come from the untraced pass.
	floorMs := stratifiedFloor(ref.win.sliceMs, ref.win.sliceEvs)
	v["sim.events_per_vs"] = float64(w.events) / vs
	v["sim.host_us_per_event"] = 1000 * floorMs / float64(ref.win.events)
	v["sim.host_ms_per_vs"] = floorMs / vs

	// Instruments.
	v["bench.gen_late_ms"] = w.genLateMs
	v["bench.trace_overhead_pct"] = 100 * (stratifiedFloor(w.sliceMs, w.sliceEvs) - floorMs) / floorMs
	v["bench.ops_abandoned"] = float64(w.abandoned)
	v["bench.trace_mismatches"] = 0
	if r.exactKey() != ref.exactKey() || led.sends != w.msgs {
		v["bench.trace_mismatches"] = 1
	}
	return v, nil
}
