package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

// Toy sizes: every workload in a second or two, so the suite runs under
// -short.
func toySim(kind string) simSpec {
	s := simSpecs[kind](1)
	s.peers, s.settle, s.window = 100, 4*time.Second, 2*time.Second
	if s.records > 0 {
		s.records = 64
	}
	if s.readBack > 0 {
		s.readBack = 16
	}
	if s.rate > 200 {
		s.rate = 200
	}
	return s
}

func toyUDP() udpSpec {
	return udpSpec{clusters: 2, nodes: 4, settle: 2 * time.Second, idle: 200 * time.Millisecond, records: 16, warmup: 20, ops: 100, block: 25}
}

func checkComplete(t *testing.T, v values, defs []metricDef) {
	t.Helper()
	m, err := v.complete(defs)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range defs {
		if got := m[d.name]; got.Unit != d.unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s = %+v, want a finite value in %s", d.name, got, d.unit)
		}
	}
}

func ledgerSum(v values) float64 {
	total := 0.0
	for _, r := range cpuRows {
		total += v[r+".cpu_pct"]
	}
	return total
}

func TestSimWorkloadsEmitEveryMetric(t *testing.T) {
	for _, name := range []string{"sim-churn", "sim-reads", "sim-writes"} {
		t.Run(name, func(t *testing.T) {
			spec := toySim(name)
			out, err := simWorkload(spec, 1, false)
			if err != nil {
				t.Fatal(err)
			}
			if out.attempted < 1 {
				t.Errorf("attempted = %d", out.attempted)
			}
			checkComplete(t, out.v, simEndToEnd)
			for _, d := range simEndToEnd {
				if out.v[d.name] == 0 {
					t.Errorf("end-to-end metric %s is 0", d.name)
				}
			}

			out, err = simWorkload(spec, 1, true)
			if err != nil {
				t.Fatal(err)
			}
			v := out.v
			checkComplete(t, v, simPerLayer)
			if sum := ledgerSum(v); math.Abs(sum-100) > 1e-6 && sum != 0 {
				t.Errorf("CPU ledger sums to %v, want 100", sum)
			}
			if v["bench.trace_mismatches"] != 0 {
				t.Errorf("traced pass did not reproduce the untraced pass")
			}
		})
	}
}

func TestUDPWorkloadEmitsEveryMetric(t *testing.T) {
	out, err := udpWorkload(toyUDP(), 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.attempted != 200 || out.failed != 0 {
		t.Errorf("attempted %d failed %d, want 200 (two clusters of 100) and 0", out.attempted, out.failed)
	}
	checkComplete(t, out.v, udpEndToEnd)
	for _, d := range udpEndToEnd {
		if out.v[d.name] == 0 {
			t.Errorf("end-to-end metric %s is 0", d.name)
		}
	}
	out, err = udpWorkload(toyUDP(), 1, true)
	if err != nil {
		t.Fatal(err)
	}
	v := out.v
	checkComplete(t, v, udpPerLayer)
	if v["udptransport.syscalls_per_msg"] <= 0 || v["udptransport.rtt_us"] <= 0 {
		t.Errorf("real-socket counters did not move: %v syscalls/msg, %v us rtt",
			v["udptransport.syscalls_per_msg"], v["udptransport.rtt_us"])
	}
}

// Same seed, same exact metrics; another seed, another op sequence.
func TestSimIsExactForASeed(t *testing.T) {
	for _, name := range []string{"sim-churn", "sim-reads", "sim-writes"} {
		spec := toySim(name)
		a, err := runSim(spec, 7, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := runSim(spec, 7, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.exactKey() != b.exactKey() {
			t.Errorf("%s: two runs of seed 7 differ:\n%s\n%s", name, a.exactKey(), b.exactKey())
		}
		if reflect.DeepEqual(genOps(spec, 7), genOps(spec, 8)) {
			t.Errorf("%s: seeds 7 and 8 generate the same ops", name)
		}
		if !reflect.DeepEqual(genOps(spec, 7), genOps(spec, 7)) {
			t.Errorf("%s: seed 7 generates two different op sequences", name)
		}
	}
	if reflect.DeepEqual(genUDPOps(toyUDP(), 7, 100), genUDPOps(toyUDP(), 8, 100)) {
		t.Error("udp-mixed: seeds 7 and 8 generate the same ops")
	}
}

func TestQuietFloor(t *testing.T) {
	// 100 slices of cost 10, a fifth of them disturbed upward: the floor
	// must not move.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = 10
		if i%5 == 0 {
			xs[i] = 10 + float64(i)
		}
	}
	if got := quietFloor(xs); got != 10 {
		t.Errorf("quietFloor = %v, want 10", got)
	}
	// One lucky slice must not set it.
	xs[1] = 1
	if got := quietFloor(xs); got != 10 {
		t.Errorf("quietFloor with one fast outlier = %v, want 10", got)
	}
	if got := quantile([]float64{1, 2, 3, 4, 5}, 0.1); math.Abs(got-1.4) > 1e-12 {
		t.Errorf("p10 of 1..5 = %v, want 1.4 (linear interpolation)", got)
	}
}

func TestStratifiedFloor(t *testing.T) {
	// A bursty window: one slice in eight does ten times the work. A
	// plain p10 reports the idle slices; the stratified floor adds the
	// bursts back and still ignores upward noise.
	var ms, evs []float64
	for i := 0; i < 240; i++ {
		cost, events := 10.0, 1000.0
		if i%8 == 0 {
			cost, events = 100, 10000
		}
		if i%3 == 0 {
			cost *= 1.5 // a noisy neighbour
		}
		ms, evs = append(ms, cost), append(evs, events)
	}
	want := 210*10.0 + 30*100.0
	if got := stratifiedFloor(ms, evs); math.Abs(got-want) > 1e-9 {
		t.Errorf("stratifiedFloor = %v, want %v", got, want)
	}
	if got := quietFloor(ms) * 240; got >= want {
		t.Errorf("plain floor %v should underestimate the bursty window (%v)", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
	if got := iqrSpread([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29}); math.Abs(got-27.5/13.5) > 1e-12 {
		t.Errorf("iqrSpread = %v", got)
	}
}

func TestMetricDeclarations(t *testing.T) {
	if err := validateDefs(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "é", "x#", string(make([]byte, 65))} {
		if nameRE.MatchString(bad) {
			t.Errorf("name %q accepted", bad)
		}
	}
	for _, good := range []string{"setup_s", "runtime.gc.cpu_pct", "9p", "A-b.c_d"} {
		if !nameRE.MatchString(good) {
			t.Errorf("name %q rejected", good)
		}
	}
	for _, w := range workloads {
		hasSetup := false
		for _, d := range w.endToEnd {
			if d.name == "setup_s" && d.unit == "s" && d.better == "lower" {
				hasSetup = true
			}
			if d.bound <= 0 {
				t.Errorf("%s: %s has no bound", w.name, d.name)
			}
		}
		if !hasSetup {
			t.Errorf("%s: setup_s (s, lower) is not an end-to-end metric", w.name)
		}
		if len(w.perLayer) > 128 || len(w.endToEnd) > 16 {
			t.Errorf("%s: %d per-layer and %d end-to-end metrics exceed the contract", w.name, len(w.perLayer), len(w.endToEnd))
		}
	}
}

// BENCHMARK.json is written by hand from the tables in metrics.go; this
// keeps the two equal. It lists the gated workloads, which all report
// the same metrics.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside bench/: ", err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var gated []workload
	for _, w := range workloads {
		if w.gated {
			gated = append(gated, w)
		}
	}
	if len(doc.Workloads) != len(gated) {
		t.Fatalf("%d workloads declared, want %d", len(doc.Workloads), len(gated))
	}
	for i, w := range doc.Workloads {
		if w.Name != gated[i].name || w.Why != gated[i].why {
			t.Errorf("workload %d = %q (%q), want %q (%q)", i, w.Name, w.Why, gated[i].name, gated[i].why)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics declared, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s[%d] = %+v, want %s %s %s", kind, i, g, d.name, d.unit, d.better)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.bound) {
				t.Errorf("%s %s: bound %v, want %v (bounded: %v)", kind, d.name, g.Bound, d.bound, bounded)
			}
		}
	}
	for _, w := range gated {
		check("end_to_end", doc.EndToEnd, w.endToEnd, true)
		check("per_layer", doc.PerLayer, w.perLayer, false)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench" || doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", doc.Paths, doc.RunSeconds)
	}
}

// pbuf is just enough of a protobuf encoder to write a synthetic profile.
type pbuf struct{ bytes.Buffer }

func (p *pbuf) varint(v uint64) {
	for v >= 0x80 {
		p.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	p.WriteByte(byte(v))
}
func (p *pbuf) uintField(num int, v uint64) { p.varint(uint64(num)<<3 | 0); p.varint(v) }
func (p *pbuf) bytesField(num int, b []byte) {
	p.varint(uint64(num)<<3 | 2)
	p.varint(uint64(len(b)))
	p.Write(b)
}
func (p *pbuf) packedField(num int, vs ...uint64) {
	var inner pbuf
	for _, v := range vs {
		inner.varint(v)
	}
	p.bytesField(num, inner.Bytes())
}

// syntheticProfile builds a gzipped profile.proto with one sample per
// stack (leaf first), each worth nanos[i] of CPU.
func syntheticProfile(stacks [][]string, nanos []uint64) []byte {
	var prof pbuf
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	funcID := map[string]uint64{}
	for si, stack := range stacks {
		var locs []uint64
		for _, fn := range stack {
			id, ok := funcID[fn]
			if !ok {
				id = uint64(len(funcID) + 1)
				funcID[fn] = id
				var f pbuf
				f.uintField(1, id)
				f.uintField(2, intern(fn))
				prof.bytesField(5, f.Bytes())
				var line pbuf
				line.uintField(1, id)
				var loc pbuf
				loc.uintField(1, id) // location id == function id
				loc.bytesField(4, line.Bytes())
				prof.bytesField(4, loc.Bytes())
			}
			locs = append(locs, id)
		}
		var s pbuf
		s.packedField(1, locs...)
		s.packedField(2, 1, nanos[si]) // (samples/count, cpu/nanoseconds)
		prof.bytesField(2, s.Bytes())
	}
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	var zipped bytes.Buffer
	zw := gzip.NewWriter(&zipped)
	zw.Write(prof.Bytes())
	zw.Close()
	return zipped.Bytes()
}

func TestCPULedgerOnSyntheticProfile(t *testing.T) {
	stacks := [][]string{
		// core's own code.
		{"treep/internal/core.(*Node).HandleMessage", "treep/internal/simrt.(*Cluster).attach.func2", "treep/internal/netsim.(*delivery).deliver"},
		// a runtime helper called by rtable is rtable's time.
		{"runtime.memmove", "treep/internal/rtable.(*Set).orderInsert", "treep/internal/core.(*Node).handlePing"},
		// allocation on behalf of dht is the allocator's row.
		{"runtime.nextFreeFast", "runtime.mallocgc", "runtime.newobject", "treep/internal/dht.(*Service).Get"},
		// a collection assist inside an allocation is the collector's.
		{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "treep/internal/proto.DecodePooled"},
		// background marking has no repository frame at all.
		{"runtime.greyobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// a socket write.
		{"internal/runtime/syscall.Syscall6", "syscall.Syscall6", "treep/internal/udptransport.(*mmsgIO).send"},
		// the idle scheduler polling the network is scheduling, not I/O.
		{"internal/runtime/syscall.Syscall6", "internal/runtime/syscall.EpollWait", "runtime.netpoll", "runtime.findRunnable", "runtime.schedule"},
		// the benchmark's own loop.
		{"main.(*window).issue", "main.(*simCluster).runWindow", "main.main"},
		// a standard-library leaf under the benchmark.
		{"sort.insertionSort", "main.quantile"},
		// nothing recognisable.
		{"os/signal.loop"},
	}
	nanos := []uint64{10, 20, 5, 5, 10, 15, 5, 10, 10, 10}
	samples, err := decodeProfile(syntheticProfile(stacks, nanos))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(stacks) || !reflect.DeepEqual(samples[1].stack, stacks[1]) {
		t.Fatalf("decoded %d samples, second stack %v", len(samples), samples[1].stack)
	}
	pct, total := cpuLedger(samples)
	if total != 100 {
		t.Fatalf("total = %d ns, want 100", total)
	}
	want := map[string]float64{
		"core": 10, "rtable": 20, "runtime.alloc": 5, "runtime.gc": 15, "syscall": 15,
		"runtime.sched": 5, "bench": 20, "other": 10,
	}
	sum := 0.0
	for _, row := range cpuRows {
		sum += pct[row]
		if math.Abs(pct[row]-want[row]) > 1e-9 {
			t.Errorf("%s = %v%%, want %v%%", row, pct[row], want[row])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("ledger sums to %v", sum)
	}
	if _, err := decodeProfile([]byte{0x1f, 0x8b, 0, 1, 2}); err == nil {
		t.Error("a corrupt profile decoded without error")
	}
}

func TestMsgClassKnowsEveryWireType(t *testing.T) {
	// A wire type the ledger does not know must surface as "other", and
	// the types in use today must all be known.
	if got := msgClass("some-new-message"); got != "other" {
		t.Errorf("unknown type classed as %q", got)
	}
	for ty := 1; ty < maxMsgType; ty++ {
		name := msgTypeName(ty)
		if len(name) > 7 && name[:7] == "msgtype" {
			break
		}
		if msgClass(name) == "other" {
			t.Errorf("wire type %q has no ledger row", name)
		}
	}
}
