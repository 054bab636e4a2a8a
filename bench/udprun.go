package main

import (
	"fmt"
	"runtime"
	"time"

	"treep"
)

// stormFactor flags a cluster (or, in the self-check, a run) whose
// datagrams per op exceed this multiple of the reference.
const stormFactor = 1.5

// udpClusterRun is what one cluster of a run yields.
type udpClusterRun struct {
	setupS    float64
	formS     float64
	heapBytes uint64
	idleMsgs  float64 // datagrams per node per second before any op (traced pass)
	plain     udpResult
	traced    *udpResult // second half of the ops under the tracer (traced pass)
	rttUs     float64
}

// udpRun is one pass over the real-socket workload.
type udpRun struct {
	spec     udpSpec
	clusters []udpClusterRun
}

// runUDPWorkload forms spec.clusters clusters one after the other and
// drives a share of the op stream through each. On the traced pass each
// cluster runs the first half of its ops untraced and the second half
// under the span recorder and the CPU profile, so the overhead of
// tracing is the difference between two halves of one cluster.
func runUDPWorkload(spec udpSpec, seed int64, tr *tracer) (*udpRun, error) {
	run := &udpRun{spec: spec}
	per := spec.warmup + spec.ops
	ops := genUDPOps(spec, seed, spec.clusters*per)
	for c := 0; c < spec.clusters; c++ {
		cr, err := runUDPCluster(spec, seed*8+int64(c), ops[c*per:(c+1)*per], tr)
		if err != nil {
			return nil, fmt.Errorf("cluster %d: %w", c, err)
		}
		run.clusters = append(run.clusters, cr)
	}
	return run, nil
}

func runUDPCluster(spec udpSpec, seed int64, ops []udpOp, tr *tracer) (udpClusterRun, error) {
	var cr udpClusterRun
	csp := tr.begin("cluster", 0)
	defer tr.end(csp)
	t0 := time.Now()
	u, err := setupUDP(spec, seed, tr)
	if err != nil {
		return cr, err
	}
	defer u.close()
	cr.setupS, cr.formS = time.Since(t0).Seconds(), u.formS
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cr.heapBytes = m.HeapAlloc

	if tr != nil {
		sp := tr.begin("idle", csp)
		w0 := u.wire()
		time.Sleep(spec.idle)
		cr.idleMsgs = float64(u.wire().Sent-w0.Sent) / float64(spec.nodes) / spec.idle.Seconds()
		tr.end(sp)
	}
	sp := tr.begin("warmup", csp)
	u.runOps(ops[:spec.warmup], nil)
	tr.end(sp)
	ops = ops[spec.warmup:]
	if tr == nil {
		cr.plain = u.runOps(ops, nil)
		return cr, nil
	}
	half := len(ops) / 2
	cr.plain = u.runOps(ops[:half], nil)
	sp = tr.begin("window", csp)
	res := u.runOps(ops[half:], tr)
	tr.end(sp)
	cr.traced = &res
	cr.rttUs = u.rtt()
	return cr, nil
}

// rtt is the floor latency of a Get issued at the peer farthest from the
// record's owner (IDs are evenly spaced, so that is half the ring away
// and holds no replica): an owner lookup plus one fetch and its reply
// over loopback sockets. Floor of five batches, in microseconds.
func (u *udpCluster) rtt() float64 {
	owner := int(float64(treep.HashKey(u.keys[0])) / float64(^uint64(0)) * float64(len(u.nodes)))
	from := u.nodes[(owner+len(u.nodes)/2)%len(u.nodes)]
	const calls = 200
	return probeFloor(calls, func() {
		for i := 0; i < calls; i++ {
			if _, err := from.Get(u.keys[0]); err != nil {
				return
			}
		}
	}) / 1000
}

// overClusters reduces one figure per cluster to the run's figure: the
// median cluster.
func (r *udpRun) overClusters(f func(*udpClusterRun) float64) float64 {
	xs := make([]float64, len(r.clusters))
	for i := range r.clusters {
		xs[i] = f(&r.clusters[i])
	}
	return median(xs)
}

// msgsPerOp is a cluster's datagrams per op over everything it ran.
func (c *udpClusterRun) msgsPerOp() float64 {
	sent, ops := c.plain.wire.Sent, c.plain.ops
	if c.traced != nil {
		sent, ops = sent+c.traced.wire.Sent, ops+c.traced.ops
	}
	return float64(sent) / float64(ops)
}

// counts sums attempted and failed ops over the clusters.
func (r *udpRun) counts() (attempted, failed int) {
	for i := range r.clusters {
		c := &r.clusters[i]
		attempted += c.plain.ops
		failed += c.plain.ops - c.plain.okOps
		if c.traced != nil {
			attempted += c.traced.ops
			failed += c.traced.ops - c.traced.okOps
		}
	}
	return attempted, failed
}

// endToEndValues derives the end-to-end metrics of the real-socket run
// from the untraced windows.
func (r *udpRun) endToEndValues() values {
	attempted, failed := r.counts()
	perOp := func(f func(*udpResult) float64) float64 {
		return r.overClusters(func(c *udpClusterRun) float64 { return f(&c.plain) / float64(c.plain.ops) })
	}
	return values{
		"setup_s":   r.overClusters(func(c *udpClusterRun) float64 { return c.setupS }),
		"op_ok_pct": 100 * float64(attempted-failed) / float64(attempted),
		"op_p50_us": r.overClusters(func(c *udpClusterRun) float64 {
			return blockFloor(c.plain.latUs, r.spec.block, sortedQuantile(0.5))
		}),
		"msgs_per_op": perOp(func(p *udpResult) float64 { return float64(p.wire.Sent) }),
		"syscalls_per_op": perOp(func(p *udpResult) float64 {
			return float64(p.wire.SendSyscalls + p.wire.RecvSyscalls)
		}),
		"allocs_per_op": perOp(func(p *udpResult) float64 { return float64(p.mallocs) }),
		"heap_bytes_per_node": r.overClusters(func(c *udpClusterRun) float64 {
			return float64(c.heapBytes) / float64(r.spec.nodes)
		}),
	}
}

// perLayerValues derives the per-layer metrics of the traced pass.
func (r *udpRun) perLayerValues() (values, error) {
	v := values{}
	var samples []profSample
	for i := range r.clusters {
		c := &r.clusters[i]
		if c.traced == nil {
			return nil, fmt.Errorf("udp per-layer metrics need the traced pass")
		}
		s, err := decodeProfile(c.traced.prof)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		samples = append(samples, s...)
	}
	pct, _ := cpuLedger(samples)
	for row, p := range pct {
		v[row+".cpu_pct"] = p
	}
	traced := func(f func(t *udpResult) float64) float64 {
		return r.overClusters(func(c *udpClusterRun) float64 { return f(c.traced) })
	}
	syscalls := func(t *udpResult) float64 { return float64(t.wire.SendSyscalls + t.wire.RecvSyscalls) }
	v["udptransport.syscalls_per_msg"] = traced(func(t *udpResult) float64 { return syscalls(t) / float64(t.wire.Sent) })
	v["udptransport.flushes_per_msg"] = traced(func(t *udpResult) float64 { return float64(t.wire.Flushes) / float64(t.wire.Sent) })
	v["udptransport.drops"], v["udptransport.decode_errs"] = 0, 0
	hopsSum, hopsN := 0, 0
	quietest, loudest := r.clusters[0].msgsPerOp(), 0.0
	for i := range r.clusters {
		c := &r.clusters[i]
		v["udptransport.drops"] += float64(c.plain.wire.Drops + c.plain.wire.Oversize + c.traced.wire.Drops + c.traced.wire.Oversize)
		v["udptransport.decode_errs"] += float64(c.plain.wire.DecodeErrs + c.traced.wire.DecodeErrs)
		hopsSum += c.plain.hopsSum + c.traced.hopsSum
		hopsN += c.plain.hopsN + c.traced.hopsN
		quietest, loudest = min(quietest, c.msgsPerOp()), max(loudest, c.msgsPerOp())
	}
	v["udptransport.idle_msgs_per_node_s"] = r.overClusters(func(c *udpClusterRun) float64 { return c.idleMsgs })
	v["udptransport.rtt_us"] = r.overClusters(func(c *udpClusterRun) float64 { return c.rttUs })
	v["udp.form_s"] = r.overClusters(func(c *udpClusterRun) float64 { return c.formS })
	v["udp.ops_per_s"] = traced(func(t *udpResult) float64 { return float64(t.ops) / t.wall.Seconds() })
	v["udp.cpu_us_per_op"] = traced(func(t *udpResult) float64 {
		return float64(t.cpu) / float64(time.Microsecond) / float64(t.ops)
	})
	v["udp.op_p90_us"] = traced(func(t *udpResult) float64 { return quantile(t.latUs, 0.90) })
	v["udp.op_p99_us"] = traced(func(t *udpResult) float64 { return quantile(t.latUs, 0.99) })
	v["udp.mean_hops"] = 0
	if hopsN > 0 {
		v["udp.mean_hops"] = float64(hopsSum) / float64(hopsN)
	}

	// Storm visibility: the run reports its median cluster, so the
	// clusters that stand well above the quietest one are counted here,
	// and the loudest is reported as measured.
	storms := 0
	for i := range r.clusters {
		if r.clusters[i].msgsPerOp() > stormFactor*quietest {
			storms++
		}
	}
	v["udp.storm_clusters_pct"] = 100 * float64(storms) / float64(len(r.clusters))
	v["udp.max_msgs_per_op"] = loudest

	p50 := func(res *udpResult) float64 { return blockFloor(res.latUs, r.spec.block, sortedQuantile(0.5)) }
	v["bench.trace_overhead_pct"] = r.overClusters(func(c *udpClusterRun) float64 {
		return 100 * (p50(c.traced) - p50(&c.plain)) / p50(&c.plain)
	})
	return v, nil
}
