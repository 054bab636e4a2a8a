package scenario

import (
	"math"
	"sort"
	"time"
)

// Zipf is a deterministic Zipf(θ) rank sampler: the CDF over n ranks is
// precomputed and a uniform draw maps to a rank by binary search. The
// stdlib's rand.Zipf requires s > 1 and owns its RNG; this one supports
// the canonical θ = 1.0 and is driven by any uniform float the caller
// supplies — in the scenario engine, the engine's seeded stream, which
// keeps every workload bit-identical per seed at any shard count.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a sampler over ranks 0..n-1 with exponent theta
// (weights 1/(rank+1)^theta). n < 1 is treated as 1; theta <= 0 as 1.0.
func NewZipf(n int, theta float64) *Zipf {
	if n < 1 {
		n = 1
	}
	if theta <= 0 {
		theta = 1.0
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Rank maps a uniform draw u in [0, 1) to a rank; rank 0 is the most
// popular.
func (z *Zipf) Rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// --- skewed-read phases -----------------------------------------------------

// repeatReaders is a bounded set of repeat readers: real clients are
// long-lived processes that issue many reads each, not a fresh node per
// request — and that repetition is exactly what reader-side caching
// exploits. Dead pool members are replaced on use so churn does not
// silently shrink the read rate.
type repeatReaders struct {
	addrs []uint64
}

// repeatReaders returns the engine's shared reader pool, creating or
// growing it to want members. The pool persists across phases: the same
// client population keeps reading through warmup, measurement and
// flash-crowd phases, which is both realistic and what lets reader-side
// caches built in one phase serve the next.
func (e *Engine) repeatReaders(want int) *repeatReaders {
	if want <= 0 {
		want = 64
	}
	if e.readers == nil {
		e.readers = &repeatReaders{}
	}
	e.readers.fill(e, want)
	return e.readers
}

// fill draws distinct live service-bearing nodes through the engine's
// deterministic stream until the pool has want members (or tries run out).
func (p *repeatReaders) fill(e *Engine, want int) {
	st := e.opts.Storage
	alive := e.C.AliveNodes()
	for tries := 0; tries < want*8 && len(p.addrs) < want && len(alive) > 0; tries++ {
		nd := alive[e.rng.Intn(len(alive))]
		if st.services[nd.Addr()] == nil {
			continue
		}
		dup := false
		for _, a := range p.addrs {
			if a == nd.Addr() {
				dup = true
				break
			}
		}
		if !dup {
			p.addrs = append(p.addrs, nd.Addr())
		}
	}
}

// pick returns a live reader's service, replacing dead slots in place.
func (p *repeatReaders) pick(e *Engine) (uint64, bool) {
	st := e.opts.Storage
	for tries := 0; tries < 8 && len(p.addrs) > 0; tries++ {
		i := e.rng.Intn(len(p.addrs))
		addr := p.addrs[i]
		if nd := e.C.NodeByAddr(addr); nd != nil && e.C.Alive(nd) && st.services[addr] != nil {
			return addr, true
		}
		// Replace the dead slot with a fresh live reader.
		alive := e.C.AliveNodes()
		if len(alive) == 0 {
			return 0, false
		}
		repl := alive[e.rng.Intn(len(alive))]
		if st.services[repl.Addr()] != nil {
			p.addrs[i] = repl.Addr()
		}
	}
	return 0, false
}

// ZipfReads drives Poisson-paced reads whose key popularity follows
// Zipf(Theta) over the ledgered records: rank 0 (the smallest hashed
// key) takes the lion's share, the tail almost nothing. This is the
// skewed regime that concentrates load on a handful of owners — the
// workload the capacity balancer exists for.
type ZipfReads struct {
	// For is the phase duration.
	For time.Duration
	// Rate is the aggregate read intensity in reads per virtual second.
	Rate float64
	// Theta is the Zipf exponent (default 1.0).
	Theta float64
	// Readers bounds the repeat-reader pool (default 64).
	Readers int
}

// Name implements Phase.
func (ZipfReads) Name() string { return "zipf-reads" }

// Run implements Phase.
func (z ZipfReads) Run(e *Engine) {
	st := e.opts.Storage
	if st == nil || st.ledger.Len() == 0 || z.Rate <= 0 {
		e.Run(z.For)
		return
	}
	dist := NewZipf(st.ledger.Len(), z.Theta)
	pool := e.repeatReaders(z.Readers)
	runReads(e, z.For, z.Rate, pool, func() int { return dist.Rank(e.rng.Float64()) })
}

// FlashCrowdReads aims the whole read rate at ONE ledgered key — the
// flash-crowd regime (every client fetching the same just-published
// record) that turns a single owner into the hottest node in the
// overlay.
type FlashCrowdReads struct {
	// For is the phase duration.
	For time.Duration
	// Rate is the aggregate read intensity in reads per virtual second.
	Rate float64
	// Readers bounds the repeat-reader pool (default 64).
	Readers int
	// KeyIndex selects the crowd's key by index into the sorted ledger
	// (default 0).
	KeyIndex int
}

// Name implements Phase.
func (FlashCrowdReads) Name() string { return "flash-crowd-reads" }

// Run implements Phase.
func (f FlashCrowdReads) Run(e *Engine) {
	st := e.opts.Storage
	if st == nil || st.ledger.Len() == 0 || f.Rate <= 0 {
		e.Run(f.For)
		return
	}
	idx := f.KeyIndex
	if idx < 0 || idx >= st.ledger.Len() {
		idx = 0
	}
	pool := e.repeatReaders(f.Readers)
	runReads(e, f.For, f.Rate, pool, func() int { return idx })
}

// runReads paces reads as one Poisson stream: each event picks a reader
// from the pool and a ledger rank from rankOf and issues the counted Get.
// Once the cluster is interrupted the clock stands still and the remaining
// events issue nothing.
func runReads(e *Engine, dur time.Duration, rate float64, pool *repeatReaders, rankOf func() int) {
	st := e.opts.Storage
	end := e.C.Now() + dur
	poisson(e, e.rng, end, []float64{rate}, func(int) {
		if e.C.Interrupted() {
			return
		}
		if addr, ok := pool.pick(e); ok {
			st.get(st.services[addr], rankOf())
		}
	})
	e.advanceUntil(end)
}
