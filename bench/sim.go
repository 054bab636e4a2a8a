package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"treep/internal/core"
	"treep/internal/dht"
	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/scenario"
	"treep/internal/simrt"
)

// opKind is what one generated operation asks the overlay to do.
type opKind uint8

const (
	opLookup opKind = iota
	opGet
	opPut
)

// simSpec sizes one simulated workload. The full-size values live in
// workloads.go; tests shrink them.
type simSpec struct {
	name string
	// peers is the bulk-built population.
	peers int
	// settle is the virtual time the overlay runs before anything else.
	settle time.Duration
	// records is the number of 64-byte records preloaded through the DHT
	// (0 = no storage layer attached).
	records int
	// window is the measured virtual-time window; slice is the unit the
	// quiet floor is taken over; tick is the open-loop issue cadence.
	window, slice, tick time.Duration
	// kind and rate define the open-loop stream (ops per virtual second).
	kind opKind
	rate float64
	// zipf > 0 draws Get keys Zipf(zipf) over the records; 0 is uniform.
	zipf float64
	// shadowEvery issues a pure Lookup of every k-th op's key so DHT
	// workloads report overlay hops (0 = the ops are lookups already).
	shadowEvery int
	// churn is the Poisson join rate and the equal fail-stop leave rate
	// during the window (per virtual second).
	churn float64
	// zoneKill runs the fault phase before the window: fail-stop every
	// peer in [0.45, 0.55] of the ID space and time the reconvergence.
	zoneKill bool
	// readBack re-reads this many written keys after the window.
	readBack int
}

const (
	// failLatency is what a failed op is charged in the latency
	// percentiles: the lookup timeout, the longest a caller waits.
	failLatency = 10 * time.Second
	// reconvergeCap bounds the fault phase; hitting it fails the run.
	reconvergeCap = 60 * time.Second
	// checkEvery is the invariant sampling cadence of the fault phase.
	checkEvery = 500 * time.Millisecond
	// valueSize is the record payload size.
	valueSize = 64
	// lookupAttempts is how often the churn workload's client tries one
	// lookup before giving up.
	lookupAttempts = 4
	// worldSeed builds what the simulated workloads run on: the overlay
	// (peer IDs, capacities, link latencies) and the data set (record
	// keys, their popularity ranks, and the peers the loader wrote them
	// through). It is fixed, and --seed drives the load: which peer issues
	// which op on which tick, lookup targets, churn arrivals and victims.
	// Two overlays of the same size differ by a tenth in hops, latency and
	// heap per peer, two hot-key sets by a twentieth in read latency, and
	// two loader trajectories by 18 to 30 virtual s of set-up and with it
	// a fiftieth to a third in heap per peer (README: noise study), which
	// no ten-run median averages out; a run is meant to measure the code,
	// on one world, under varying load.
	worldSeed = 1
	// drainCap bounds the virtual time spent waiting for the last ops.
	drainCap = 60 * time.Second
)

// simCluster is one set-up overlay plus the benchmark's view of it.
type simCluster struct {
	c    *simrt.Cluster
	svcs map[uint64]*dht.Service // by node address; nil without records
	keys [][]byte
	// ledger is the value each key must read back as; uncertain marks
	// keys whose last write failed (either outcome is then legal).
	ledger    [][]byte
	uncertain []bool
	version   []uint64
	tr        *tracer
	// prof, when set, receives a CPU profile of the measured window.
	prof *bytes.Buffer
}

// setupTimes is the host cost of one complete set-up by stage.
type setupTimes struct{ build, settle, preload time.Duration }

func (s setupTimes) total() time.Duration { return s.build + s.settle + s.preload }

// keyFor is the raw DHT key of record i of the data set built from seed
// (worldSeed on the simulated workloads, the run's seed on udp-mixed).
func keyFor(seed int64, i int) []byte {
	return []byte(fmt.Sprintf("rec/%d/%06d", seed, i))
}

// valueFor is the deterministic 64-byte payload of (record, version).
func valueFor(i int, version uint64) []byte {
	v := make([]byte, valueSize)
	binary.BigEndian.PutUint64(v[0:], uint64(i))
	binary.BigEndian.PutUint64(v[8:], version)
	for j := 16; j < valueSize; j++ {
		v[j] = byte(i + j + int(version))
	}
	return v
}

// setupSim builds, settles and preloads one overlay. The only
// configuration the program under test receives is population, seed,
// bulk build and (traced runs) the datagram hook. Nothing here depends on
// --seed: every run's measured window starts from the same overlay state.
func setupSim(spec simSpec, tr *tracer) (*simCluster, setupTimes, error) {
	var st setupTimes
	var netOpts []netsim.Option
	if tr != nil {
		netOpts = append(netOpts, netsim.WithTrace(tr.datagram))
	}

	t0 := time.Now()
	sp := tr.begin("setup.build", 0)
	c := simrt.New(simrt.Options{N: spec.peers, Seed: worldSeed, Bulk: true, NetOpts: netOpts})
	c.StartAll()
	sc := &simCluster{c: c, tr: tr}
	if spec.records > 0 {
		sc.svcs = make(map[uint64]*dht.Service, spec.peers)
		for _, n := range c.Nodes {
			sc.svcs[n.Addr()] = dht.Attach(n)
		}
	}
	tr.end(sp)
	st.build = time.Since(t0)

	t0 = time.Now()
	sp = tr.begin("setup.settle", 0)
	c.Run(spec.settle)
	tr.end(sp)
	st.settle = time.Since(t0)

	t0 = time.Now()
	sp = tr.begin("setup.preload", 0)
	err := sc.preload(spec)
	tr.end(sp)
	st.preload = time.Since(t0)
	return sc, st, err
}

// preload writes the records through random live origins, 64 per tick,
// and waits for every acknowledgement plus two replica-maintenance
// rounds, so the measured window starts on a fully replicated store. A
// put that fails is retried from another origin, as a loader would; a
// record that cannot be stored in three rounds fails the set-up.
func (sc *simCluster) preload(spec simSpec) error {
	if spec.records == 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(worldSeed ^ 0x7072656c)) // "prel"
	sc.keys = make([][]byte, spec.records)
	sc.ledger = make([][]byte, spec.records)
	sc.uncertain = make([]bool, spec.records)
	sc.version = make([]uint64, spec.records)
	todo := make([]int, spec.records)
	for i := range todo {
		todo[i] = i
		sc.keys[i] = keyFor(worldSeed, i)
		sc.version[i] = 1
		sc.ledger[i] = valueFor(i, 1)
	}
	for round := 0; round < 3 && len(todo) > 0; round++ {
		pending := 0
		var failed []int
		for n, i := range todo {
			origin := sc.c.Nodes[rng.Intn(len(sc.c.Nodes))]
			pending++
			sc.svcs[origin.Addr()].Put(sc.keys[i], sc.ledger[i], func(err error) {
				pending--
				if err != nil {
					failed = append(failed, i)
				}
			})
			if n%64 == 63 {
				sc.c.Run(spec.tick)
			}
		}
		for deadline := sc.c.Now() + drainCap; pending > 0 && sc.c.Now() < deadline; {
			sc.c.Run(100 * time.Millisecond)
		}
		if pending > 0 {
			return fmt.Errorf("preload: %d puts never called back", pending)
		}
		todo = failed
	}
	if len(todo) > 0 {
		return fmt.Errorf("preload: %d of %d records could not be stored", len(todo), spec.records)
	}
	sc.c.Run(4 * time.Second)
	return nil
}

// checkInvariants runs every overlay invariant checker on the current
// snapshot and returns the violations and the host time it took.
func (sc *simCluster) checkInvariants() ([]scenario.Violation, time.Duration) {
	t0 := time.Now()
	sp := sc.tr.begin("scenario.check", 0)
	x := scenario.NewCtx(sc.c)
	var out []scenario.Violation
	for _, ch := range scenario.AllCheckers() {
		out = append(out, ch.Check(x)...)
	}
	sc.tr.end(sp)
	return out, time.Since(t0)
}

// faultResult is the outcome of the zone-kill phase.
type faultResult struct {
	reconverge time.Duration // from the kill to the first of three clean samples
	capped     bool
	checks     int
	checkHost  time.Duration
}

// zoneKill fail-stops every peer in [0.45, 0.55] of the space and samples
// the invariant checkers until three consecutive samples are clean.
func (sc *simCluster) zoneKill() faultResult {
	var r faultResult
	zone := idspace.Region{Lo: idspace.FromFraction(0.45), Hi: idspace.FromFraction(0.55)}
	for _, n := range append([]*core.Node(nil), sc.c.AliveNodes()...) {
		if zone.Contains(n.ID()) {
			sc.c.Kill(n)
		}
	}
	start := sc.c.Now()
	clean := 0
	var firstClean time.Duration
	for sc.c.Now()-start < reconvergeCap {
		sp := sc.tr.begin("fault.run", 0)
		sc.c.Run(checkEvery)
		sc.tr.end(sp)
		v, host := sc.checkInvariants()
		r.checks++
		r.checkHost += host
		if len(v) > 0 {
			clean = 0
			continue
		}
		if clean == 0 {
			firstClean = sc.c.Now() - start
		}
		clean++
		if clean == 3 {
			r.reconverge = firstClean
			return r
		}
	}
	r.reconverge, r.capped = reconvergeCap, true
	return r
}

// zipfCDF precomputes the Zipf(theta) distribution over n ranks.
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// simOp is one generated operation: which tick it is due on, who issues
// it (index into the construction-order node list; churn workloads pick
// a live origin at issue time instead) and which key or target it names.
type simOp struct {
	tick   int32
	origin int32
	key    int32
	target idspace.ID
	shadow bool
}

// genOps makes the whole op schedule from the seed before the window
// starts, so generating inputs costs nothing inside the measurement.
func genOps(spec simSpec, seed int64) []simOp {
	rng := rand.New(rand.NewSource(seed ^ 0x6f707321)) // "ops!"
	ticks := int(spec.window / spec.tick)
	perTick := spec.rate * spec.tick.Seconds()
	var cdf []float64
	if spec.zipf > 0 {
		cdf = zipfCDF(spec.records, spec.zipf)
	}
	// perm decouples popularity rank from record index; like the keys it
	// belongs to the data set, not to the load.
	var perm []int
	if spec.records > 0 {
		perm = rand.New(rand.NewSource(worldSeed ^ 0x72616e6b)).Perm(spec.records) // "rank"
	}
	ops := make([]simOp, 0, int(float64(ticks)*perTick)+1)
	due := 0.0
	for t := 0; t < ticks; t++ {
		due += perTick
		for ; due >= 1; due-- {
			op := simOp{tick: int32(t), origin: int32(rng.Intn(spec.peers))}
			switch {
			case spec.kind == opLookup:
				op.target = idspace.ID(rng.Uint64())
			case cdf != nil:
				op.key = int32(perm[sort.SearchFloat64s(cdf, rng.Float64())%spec.records])
			default:
				op.key = int32(rng.Intn(spec.records))
			}
			if spec.shadowEvery > 0 && len(ops)%spec.shadowEvery == 0 {
				op.shadow = true
			}
			ops = append(ops, op)
		}
	}
	return ops
}

// windowResult is everything the measured window yields. Virtual-time
// figures are exact for a seed; host figures are not.
type windowResult struct {
	ops       int
	okOps     int
	abandoned int       // ops whose origin was fail-stopped before they completed
	latencyMs []float64 // per scored op; failures are charged at least failLatency
	hopsSum   int
	hopsN     int
	// attempts and attemptFails count single lookups under the client's
	// retry loop: the paper's failed-lookup figure is their ratio.
	attempts, attemptFails int
	sliceMs                []float64 // host ms per slice
	sliceEvs               []float64 // kernel events per slice
	virtual                time.Duration
	msgs                   uint64
	liveMean               float64
	mallocs                uint64
	events                 uint64
	readBackOK, readBackN  int
	genLateMs              float64
}

// attempted is the number of scored operations, read-backs included.
func (r *windowResult) attempted() int { return r.ops - r.abandoned + r.readBackN }

// failed is how many of them did not complete correctly.
func (r *windowResult) failed() int { return r.attempted() - r.okOps - r.readBackOK }

// opState tracks one issued op until it is scored.
type opState struct {
	origin *core.Node
	due    time.Duration
	scored bool
}

// window is the state of one measured window.
type window struct {
	sc       *simCluster
	spec     simSpec
	res      windowResult
	state    []opState
	inFlight []bool // keys with a write outstanding
	rng      *rand.Rand
	pending  int
}

// score records an op's outcome once; latency runs from the tick the op
// was due on to now.
func (w *window) score(i int, ok bool) {
	st := &w.state[i]
	if st.scored {
		return
	}
	st.scored = true
	w.pending--
	lat := w.sc.c.Now() - st.due
	if ok {
		w.res.okOps++
	} else if lat < failLatency {
		lat = failLatency
	}
	w.res.latencyMs[i] = float64(lat) / float64(time.Millisecond)
}

// runWindow drives the open-loop stream against the overlay: every tick
// it issues the ops due, applies the churn due, and advances virtual
// time by one tick; host time is recorded per slice.
func (sc *simCluster) runWindow(spec simSpec, seed int64, ops []simOp) windowResult {
	c := sc.c
	w := &window{
		sc: sc, spec: spec,
		res:      windowResult{ops: len(ops), latencyMs: make([]float64, len(ops))},
		state:    make([]opState, len(ops)),
		inFlight: make([]bool, spec.records),
		rng:      rand.New(rand.NewSource(seed ^ 0x6368726e)), // "chrn"
	}
	res := &w.res
	nextJoin, nextLeave := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	exp := func() time.Duration {
		return time.Duration(w.rng.ExpFloat64() / spec.churn * float64(time.Second))
	}
	if spec.churn > 0 {
		nextJoin, nextLeave = exp(), exp()
	}

	ticks := int(spec.window / spec.tick)
	ticksPerSlice := int(spec.slice / spec.tick)
	res.sliceMs = make([]float64, 0, ticks/ticksPerSlice+1)
	res.sliceEvs = make([]float64, 0, ticks/ticksPerSlice+1)

	runtime.GC()
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sent0, ev0 := c.Net.Stats().Sent, c.Events()
	start := c.Now()
	liveSum := 0.0
	next := 0
	var maxLate time.Duration
	sc.tr.window(true)
	if sc.prof != nil {
		if err := pprof.StartCPUProfile(sc.prof); err != nil {
			sc.prof = nil // another profile is running; the ledger is reported empty
		}
	}

	for t := 0; t < ticks; {
		sliceStart := time.Now()
		sliceEv := c.Events()
		sp := sc.tr.begin("window.slice", 0)
		for end := t + ticksPerSlice; t < end && t < ticks; t++ {
			due := start + time.Duration(t)*spec.tick
			if late := c.Now() - due; late > maxLate {
				maxLate = late
			}
			for off := c.Now() - start; nextJoin <= off; nextJoin += exp() {
				if n := c.SpawnJoin(); n != nil && sc.svcs != nil {
					sc.svcs[n.Addr()] = dht.Attach(n)
				}
			}
			for off := c.Now() - start; nextLeave <= off; nextLeave += exp() {
				if alive := c.AliveNodes(); len(alive) > 2 {
					c.Kill(alive[w.rng.Intn(len(alive))])
				}
			}
			for ; next < len(ops) && int(ops[next].tick) == t; next++ {
				w.issue(next, &ops[next], due)
			}
			liveSum += float64(c.AliveCount())
			c.Run(spec.tick)
		}
		sc.tr.end(sp)
		res.sliceMs = append(res.sliceMs, float64(time.Since(sliceStart))/float64(time.Millisecond))
		res.sliceEvs = append(res.sliceEvs, float64(c.Events()-sliceEv))
	}

	if sc.prof != nil {
		pprof.StopCPUProfile()
	}
	sc.tr.window(false)
	res.virtual = c.Now() - start
	res.msgs = c.Net.Stats().Sent - sent0
	res.events = c.Events() - ev0
	res.liveMean = liveSum / float64(ticks)
	runtime.ReadMemStats(&m1)
	res.mallocs = m1.Mallocs - m0.Mallocs
	res.genLateMs = float64(maxLate) / float64(time.Millisecond)

	// Drain: ops issued near the end of the window still complete (or
	// time out) and are scored; the drain is outside the host figures.
	sp := sc.tr.begin("window.drain", 0)
	for deadline := c.Now() + drainCap; w.pending > 0 && c.Now() < deadline; {
		c.Run(100 * time.Millisecond)
		for i := range w.state {
			// An op whose origin was fail-stopped has no client left to
			// see its outcome: it is dropped from the attempted count.
			if st := &w.state[i]; !st.scored && st.origin != nil && !c.Alive(st.origin) {
				st.scored = true
				w.pending--
				res.abandoned++
				res.latencyMs[i] = -1
			}
		}
	}
	sc.tr.end(sp)
	for i := range w.state {
		if !w.state[i].scored {
			w.score(i, false)
		}
	}
	scored := res.latencyMs[:0]
	for _, l := range res.latencyMs {
		if l >= 0 {
			scored = append(scored, l)
		}
	}
	res.latencyMs = scored
	if spec.readBack > 0 {
		sc.readBack(spec, seed, res)
	}
	return *res
}

// issue starts one op on its origin.
func (w *window) issue(i int, op *simOp, due time.Duration) {
	sc, c := w.sc, w.sc.c
	origin := c.Nodes[op.origin]
	if !c.Alive(origin) {
		// The scheduled origin is gone (zone kill or churn): an
		// independent user arrives at a live peer instead.
		alive := c.AliveNodes()
		origin = alive[w.rng.Intn(len(alive))]
	}
	w.state[i] = opState{origin: origin, due: due}
	w.pending++
	sp := sc.tr.begin("op", 0)
	switch w.spec.kind {
	case opLookup:
		w.lookup(i, op.target, 1, sp)
		return
	case opGet:
		k := int(op.key)
		sc.svcs[origin.Addr()].Get(sc.keys[k], func(v []byte, err error) {
			sc.tr.end(sp)
			w.score(i, err == nil && bytes.Equal(v, sc.ledger[k]))
		})
	case opPut:
		// Two writes to one key in flight have no defined order at the
		// owner, so the generator moves on to the next idle key.
		k := int(op.key)
		for w.inFlight[k] {
			k = (k + 1) % len(w.inFlight)
		}
		op.key = int32(k)
		w.inFlight[k] = true
		sc.version[k]++
		val := valueFor(k, sc.version[k])
		sc.svcs[origin.Addr()].Put(sc.keys[k], val, func(err error) {
			sc.tr.end(sp)
			w.inFlight[k] = false
			if err == nil {
				sc.ledger[k], sc.uncertain[k] = val, false
			} else {
				sc.uncertain[k] = true
			}
			w.score(i, err == nil)
		})
	}
	if op.shadow {
		ssp := sc.tr.begin("op.shadow-lookup", sp)
		origin.Lookup(idspace.HashKey(sc.keys[op.key]), proto.AlgoG, func(r core.LookupResult) {
			sc.tr.end(ssp)
			if r.Status == core.LookupFound {
				w.res.hopsSum += r.Hops
				w.res.hopsN++
			}
		})
	}
}

// lookup is the churn workload's client: one lookup, retried by the
// caller when it times out or resolves to a peer that has since stopped,
// up to lookupAttempts times. The op's latency includes the failed
// attempts, which is what a retrying user waits.
func (w *window) lookup(i int, target idspace.ID, attempt int, sp int32) {
	origin := w.state[i].origin
	w.res.attempts++
	asp := w.sc.tr.begin("op.attempt", sp)
	origin.Lookup(target, proto.AlgoG, func(r core.LookupResult) {
		w.sc.tr.end(asp)
		if r.Status == core.LookupFound && w.sc.aliveAddr(r.Best.Addr) {
			w.sc.tr.end(sp)
			w.res.hopsSum += r.Hops
			w.res.hopsN++
			w.score(i, true)
			return
		}
		w.res.attemptFails++
		if attempt < lookupAttempts {
			w.lookup(i, target, attempt+1, sp)
			return
		}
		w.sc.tr.end(sp)
		w.score(i, false)
	})
}

func (sc *simCluster) aliveAddr(addr uint64) bool {
	n := sc.c.NodeByAddr(addr)
	return n != nil && sc.c.Alive(n)
}

// readBack re-reads sampled keys after a write window: each must return
// the last acknowledged value. Failures count against op_ok_pct.
func (sc *simCluster) readBack(spec simSpec, seed int64, res *windowResult) {
	rng := rand.New(rand.NewSource(seed ^ 0x72656164)) // "read"
	sp := sc.tr.begin("window.read-back", 0)
	defer sc.tr.end(sp)
	sc.c.Run(4 * time.Second) // two replica-maintenance rounds
	pending := 0
	for _, k := range rng.Perm(spec.records)[:spec.readBack] {
		origin := sc.c.Nodes[rng.Intn(len(sc.c.Nodes))]
		pending++
		res.readBackN++
		sc.svcs[origin.Addr()].Get(sc.keys[k], func(v []byte, err error) {
			pending--
			if sc.uncertain[k] || (err == nil && bytes.Equal(v, sc.ledger[k])) {
				res.readBackOK++
			}
		})
		if pending >= 64 {
			sc.c.Run(spec.tick)
		}
	}
	for deadline := sc.c.Now() + drainCap; pending > 0 && sc.c.Now() < deadline; {
		sc.c.Run(100 * time.Millisecond)
	}
}
