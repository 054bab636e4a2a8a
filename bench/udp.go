package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"treep"
)

// udpSpec sizes the real-socket workload.
type udpSpec struct {
	// clusters is how many clusters one run forms, one after the other;
	// the run reports the median cluster. Which hierarchy the wall-clock
	// elections form, and whether a cluster falls into a redirect storm,
	// is decided per cluster, so one cluster per run would measure luck.
	clusters int
	nodes    int
	settle   time.Duration // fixed wall-clock settle after the last join
	idle     time.Duration // idle window of the traced pass, before the ops
	records  int
	warmup   int
	ops      int // per cluster
	// block is the slice size, in ops, that the latency floors are taken
	// over.
	block int
}

// udpCluster is one set of real peers on loopback.
type udpCluster struct {
	nodes []*treep.UDPNode
	keys  [][]byte
	// ledger is the last acknowledged value per key.
	ledger [][]byte
	ver    []uint64
	formS  float64
}

func (u *udpCluster) close() {
	for _, n := range u.nodes {
		n.Close()
	}
}

// wire sums the transport counters over the cluster.
func (u *udpCluster) wire() treep.WireStats {
	var t treep.WireStats
	for _, n := range u.nodes {
		s := n.WireStats()
		t.Recv += s.Recv
		t.Sent += s.Sent
		t.DecodeErrs += s.DecodeErrs
		t.Drops += s.Drops
		t.Oversize += s.Oversize
		t.RecvSyscalls += s.RecvSyscalls
		t.SendSyscalls += s.SendSyscalls
		t.Flushes += s.Flushes
	}
	return t
}

// setupUDP starts the peers with evenly spaced IDs, joins each through
// the first, waits the fixed settle and preloads the records.
func setupUDP(spec udpSpec, seed int64, tr *tracer) (*udpCluster, error) {
	u := &udpCluster{}
	sp := tr.begin("setup.build", 0)
	start := time.Now()
	for i := 0; i < spec.nodes; i++ {
		frac := (float64(i) + 0.5) / float64(spec.nodes)
		n, err := treep.StartUDPNode(treep.UDPOptions{
			Bind: "127.0.0.1:0",
			ID:   treep.ID(frac * float64(^uint64(0))),
			Seed: seed*1000 + int64(i) + 1,
		})
		if err != nil {
			u.close()
			return nil, fmt.Errorf("start udp node %d: %w", i, err)
		}
		u.nodes = append(u.nodes, n)
		if i > 0 {
			if err := n.Join(u.nodes[0].Addr()); err != nil {
				u.close()
				return nil, fmt.Errorf("join udp node %d: %w", i, err)
			}
		}
	}
	tr.end(sp)

	sp = tr.begin("setup.settle", 0)
	deadline := time.Now().Add(spec.settle)
	for time.Now().Before(deadline) {
		if u.formS == 0 && u.formed() {
			u.formS = time.Since(start).Seconds()
		}
		time.Sleep(20 * time.Millisecond)
	}
	tr.end(sp)
	if u.formS == 0 {
		u.close()
		return nil, fmt.Errorf("udp cluster did not form within the %v settle", spec.settle)
	}

	sp = tr.begin("setup.preload", 0)
	defer tr.end(sp)
	rng := rand.New(rand.NewSource(seed ^ 0x7072656c)) // "prel"
	u.keys = make([][]byte, spec.records)
	u.ledger = make([][]byte, spec.records)
	u.ver = make([]uint64, spec.records)
	for i := range u.keys {
		u.keys[i] = keyFor(seed, i)
		u.ver[i] = 1
		u.ledger[i] = valueFor(i, 1)
		if err := u.nodes[rng.Intn(len(u.nodes))].Put(u.keys[i], u.ledger[i]); err != nil {
			u.close()
			return nil, fmt.Errorf("udp preload record %d: %w", i, err)
		}
	}
	return u, nil
}

// formed reports whether every peer knows at least two others.
func (u *udpCluster) formed() bool {
	for _, n := range u.nodes {
		if n.PeerCount() < 2 {
			return false
		}
	}
	return true
}

// udpOp is one generated operation of the mixed stream.
type udpOp struct {
	kind   opKind
	origin int
	key    int
	target treep.ID
}

// genUDPOps draws the 70/20/10 Get/Put/Lookup mix from the seed.
func genUDPOps(spec udpSpec, seed int64, n int) []udpOp {
	rng := rand.New(rand.NewSource(seed ^ 0x6f707321)) // "ops!"
	ops := make([]udpOp, n)
	for i := range ops {
		op := udpOp{origin: rng.Intn(spec.nodes), key: rng.Intn(spec.records), target: treep.ID(rng.Uint64())}
		switch p := rng.Intn(10); {
		case p < 7:
			op.kind = opGet
		case p < 9:
			op.kind = opPut
		default:
			op.kind = opLookup
		}
		ops[i] = op
	}
	return ops
}

// do runs one op to completion and reports whether its outcome was
// correct; hops is valid for lookups.
func (u *udpCluster) do(op udpOp) (ok bool, hops int) {
	n := u.nodes[op.origin]
	switch op.kind {
	case opGet:
		v, err := n.Get(u.keys[op.key])
		return err == nil && bytes.Equal(v, u.ledger[op.key]), 0
	case opPut:
		u.ver[op.key]++
		val := valueFor(op.key, u.ver[op.key])
		if err := n.Put(u.keys[op.key], val); err != nil {
			return false, 0
		}
		u.ledger[op.key] = val
		return true, 0
	default:
		r, err := n.Lookup(op.target, treep.AlgoG)
		return err == nil && r.Status == treep.LookupFound, r.Hops
	}
}

// udpResult is what one closed-loop window yields.
type udpResult struct {
	ops, okOps int
	latUs      []float64 // per op wall latency
	hopsSum    int
	hopsN      int
	wall       time.Duration
	wire       treep.WireStats // delta over the window
	mallocs    uint64
	cpu        time.Duration // process CPU over the window
	prof       []byte        // CPU profile of the loop (traced windows)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // reported as zero CPU per op rather than failing the run
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func wireDelta(a, b treep.WireStats) treep.WireStats {
	return treep.WireStats{
		Recv: b.Recv - a.Recv, Sent: b.Sent - a.Sent,
		DecodeErrs: b.DecodeErrs - a.DecodeErrs, Drops: b.Drops - a.Drops, Oversize: b.Oversize - a.Oversize,
		RecvSyscalls: b.RecvSyscalls - a.RecvSyscalls, SendSyscalls: b.SendSyscalls - a.SendSyscalls,
		Flushes: b.Flushes - a.Flushes,
	}
}

// runOps is the one closed-loop client: it issues the next op only when
// the previous one returned, so the loop's rate is the system's. With a
// tracer it records a span per op and a CPU profile of the loop.
func (u *udpCluster) runOps(ops []udpOp, tr *tracer) udpResult {
	res := udpResult{ops: len(ops), latUs: make([]float64, len(ops))}
	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var prof *bytes.Buffer
	if tr != nil {
		prof = &bytes.Buffer{}
		if err := pprof.StartCPUProfile(prof); err != nil {
			prof = nil // another profile is running; the ledger is reported empty
		}
	}
	w0, cpu0, start := u.wire(), processCPU(), time.Now()
	for i, op := range ops {
		sp := tr.begin("op", 0)
		t0 := time.Now()
		ok, hops := u.do(op)
		res.latUs[i] = float64(time.Since(t0)) / float64(time.Microsecond)
		tr.end(sp)
		if ok {
			res.okOps++
			if op.kind == opLookup {
				res.hopsSum += hops
				res.hopsN++
			}
		}
	}
	res.wall = time.Since(start)
	res.cpu = processCPU() - cpu0
	res.wire = wireDelta(w0, u.wire())
	if prof != nil {
		pprof.StopCPUProfile()
		res.prof = prof.Bytes()
	}
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	return res
}

// blockFloor is the quiet floor of a per-op latency statistic: the ops
// are cut into blocks, stat reduces each (sorted) block to one number,
// and the 10th percentile of the blocks is returned. On a shared box the
// client and the peers it talks to share two cores with everything else;
// block medians of one run sit at two levels a third apart, and only the
// lower one repeats between runs.
func blockFloor(lat []float64, block int, stat func(sorted []float64) float64) float64 {
	var per []float64
	for i := 0; i+block <= len(lat); i += block {
		b := append([]float64(nil), lat[i:i+block]...)
		sort.Float64s(b)
		per = append(per, stat(b))
	}
	if len(per) == 0 {
		b := append([]float64(nil), lat...)
		sort.Float64s(b)
		return stat(b)
	}
	return quietFloor(per)
}

func sortedQuantile(q float64) func([]float64) float64 {
	return func(b []float64) float64 { return quantileSorted(b, q) }
}
