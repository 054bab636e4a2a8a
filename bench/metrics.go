package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// metricDef declares one metric.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the median it may worsen by
}

// workload is one named set of inputs with the metrics it reports.
type workload struct {
	name     string
	why      string
	endToEnd []metricDef // reported by -trace 0
	perLayer []metricDef // reported by -trace 1
	// gated workloads are the ones BENCHMARK.json lists: every gated
	// workload reports the same metrics, as the benchmark contract asks.
	gated bool
}

// simEndToEnd are the figures a user of the simulated overlay sees. Only
// what repeats is gated: virtual-time figures are exact for a seed and
// move a few percent between seeds; host time on the target box does not
// repeat to better than a fifth (README.md, noise study), so apart from
// the set-up time the contract requires, it is a per-layer figure.
var simEndToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ok_pct", "%", "higher", 0.005},
	{"op_p50_ms", "ms", "lower", 0.15},
	{"op_p99_ms", "ms", "lower", 0.15},
	{"mean_hops", "hops", "lower", 0.25},
	{"msgs_per_node_s", "msgs", "lower", 0.15},
	{"allocs_per_op", "allocs", "lower", 0.20},
	{"heap_bytes_per_node", "B", "lower", 0.05},
}

// udpEndToEnd are the real-socket workload's figures. The workload is
// not gated (its wall-clock figures fail the repeatability self-check on
// the target box); the bounds are what the self-check judges them by.
var udpEndToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_ok_pct", "%", "higher", 0.005},
	{"op_p50_us", "us", "lower", 0.15},
	{"msgs_per_op", "msgs", "lower", 0.15},
	{"syscalls_per_op", "calls", "lower", 0.15},
	{"allocs_per_op", "allocs", "lower", 0.15},
	{"heap_bytes_per_node", "B", "lower", 0.05},
}

// defs builds a list of unbounded (per-layer) metric definitions.
type defs []metricDef

func (d *defs) add(better, unit string, names ...string) {
	for _, n := range names {
		*d = append(*d, metricDef{name: n, unit: unit, better: better})
	}
}

// ledgerAndProbes are the per-layer metrics every traced run reports:
// the CPU ledger (shares of the window's CPU profile, summing to 100)
// and the micro-probes (floor of five batches).
func ledgerAndProbes(d *defs) {
	for _, r := range cpuRows {
		d.add("lower", "%", r+".cpu_pct")
	}
	d.add("lower", "ns", "sim.event_ns", "netsim.deliver_ns",
		"proto.encode_ping_ns", "proto.decode_ping_ns", "proto.encode_lookup_ns", "proto.decode_lookup_ns",
		"proto.encode_store_ns", "proto.decode_store_ns",
		"rtable.touch_ns", "rtable.insert_ns", "rtable.sweep_ns", "routing.decide_ns")
	d.add("lower", "%", "bench.trace_overhead_pct")
}

// simPerLayer are the figures of single layers on the simulated
// workloads (this repository's packages prefix their names).
var simPerLayer = func() []metricDef {
	var d defs
	ledgerAndProbes(&d)
	// Message ledger (exact for a seed).
	d.add("lower", "msgs", "proto.keepalive_msgs_per_node_s", "proto.hierarchy_msgs_per_node_s",
		"proto.repair_msgs_per_node_s", "proto.other_msgs_per_node_s", "proto.lookup_msgs_per_op", "proto.dht_msgs_per_op")
	d.add("lower", "B", "proto.bytes_per_msg")
	d.add("lower", "%", "netsim.sent_to_dead_pct")
	d.add("lower", "x", "core.node_load_p99_x", "core.node_load_max_x")
	// Overlay behaviour that is exact for a seed but exists on one
	// workload only, or differs too much between seeds to gate on.
	d.add("lower", "%", "core.lookup_attempt_fail_pct")
	d.add("lower", "s", "scenario.reconverge_s")
	d.add("lower", "count", "scenario.end_violations")
	d.add("lower", "ms", "scenario.check_ms")
	// Kernel and host time (quiet floor; from the untraced pass).
	d.add("lower", "count", "sim.events_per_vs")
	d.add("lower", "us", "sim.host_us_per_event")
	d.add("lower", "ms", "sim.host_ms_per_vs")
	// The benchmark's own instruments.
	d.add("lower", "ms", "bench.gen_late_ms")
	d.add("lower", "count", "bench.ops_abandoned", "bench.trace_mismatches")
	return d
}()

// udpPerLayer are the figures of single layers on the real-socket
// workload.
var udpPerLayer = func() []metricDef {
	var d defs
	ledgerAndProbes(&d)
	d.add("lower", "calls", "udptransport.syscalls_per_msg", "udptransport.flushes_per_msg")
	d.add("lower", "count", "udptransport.drops", "udptransport.decode_errs")
	d.add("lower", "msgs", "udptransport.idle_msgs_per_node_s")
	d.add("lower", "us", "udptransport.rtt_us")
	d.add("lower", "s", "udp.form_s")
	d.add("higher", "1/s", "udp.ops_per_s")
	d.add("lower", "us", "udp.cpu_us_per_op", "udp.op_p90_us", "udp.op_p99_us")
	d.add("lower", "hops", "udp.mean_hops")
	d.add("lower", "%", "udp.storm_clusters_pct")
	d.add("lower", "msgs", "udp.max_msgs_per_op")
	return d
}()

// workloads lists every workload the program runs; README.md gives the
// long form of each why.
var workloads = []workload{
	{name: "sim-churn", gated: true, endToEnd: simEndToEnd, perLayer: simPerLayer,
		why: "2000 simulated peers: zone kill, then 4+4/s churn under 20 lookups/s; maintenance, repair and the event kernel do the work"},
	{name: "sim-reads", gated: true, endToEnd: simEndToEnd, perLayer: simPerLayer,
		why: "stable 2000-peer overlay, 2000 DHT gets/s on Zipf(0.9) keys; routing, svc and the dht read path are most of the events"},
	{name: "sim-writes", gated: true, endToEnd: simEndToEnd, perLayer: simPerLayer,
		why: "same overlay, 1000 DHT puts/s on uniform keys plus read-back; what a read-side gain costs in replication shows here"},
	{name: "udp-mixed", endToEnd: udpEndToEnd, perLayer: udpPerLayer,
		why: "16 real UDP peers on loopback, one closed-loop client; the only workload where udptransport, the codec and syscalls run"},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validateDefs checks every declared name and unit against the
// benchmark contract: charset, length, bounds, and no name used twice
// within what one workload reports.
func validateDefs() error {
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || len(w.why) == 0 || len(w.why) > 200 {
			return fmt.Errorf("workload %q: bad name or a why outside 1..200 characters", w.name)
		}
		seen := map[string]bool{w.name: true}
		for _, group := range [][]metricDef{w.endToEnd, w.perLayer} {
			for _, m := range group {
				switch {
				case !nameRE.MatchString(m.name):
					return fmt.Errorf("metric name %q: want letters, digits, _ . - (64 at most)", m.name)
				case !unitRE.MatchString(m.unit):
					return fmt.Errorf("metric %s: unit %q outside the allowed charset", m.name, m.unit)
				case m.better != "lower" && m.better != "higher":
					return fmt.Errorf("metric %s: better is %q", m.name, m.better)
				case m.bound < 0 || m.bound > 0.25:
					return fmt.Errorf("metric %s: bound %v outside [0, 0.25]", m.name, m.bound)
				case seen[m.name]:
					return fmt.Errorf("%s: name %s used twice", w.name, m.name)
				}
				seen[m.name] = true
			}
		}
	}
	return nil
}

// values is one run's measurements by metric name.
type values map[string]float64

// complete returns the values of every metric in defs, or an error
// naming what is missing or not finite.
func (v values) complete(defs []metricDef) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			missing = append(missing, d.name)
			continue
		}
		out[d.name] = metricValue{Value: x, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics missing or not finite: %v", missing)
	}
	return out, nil
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
