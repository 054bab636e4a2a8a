package scenario

import (
	"math/rand"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
)

// World is what the protocol-agnostic phases act on: a clock and the
// membership and connectivity faults any overlay can absorb. *Engine
// satisfies it for TreeP clusters on either kernel, and every
// overlay.Overlay backend embeds it, which is how the comparative harness
// plays the same scripts against Chord and flooding. Each World picks its
// own bootstrap and leave victim from its own stream and keeps its own
// tally; the phases draw only event times, from the rng they are handed.
type World interface {
	// Now is the current virtual time; Run advances it by d.
	Now() time.Duration
	Run(d time.Duration)
	// Join spawns a node and bootstraps it through a live peer, reporting
	// whether a bootstrap existed.
	Join() bool
	// Leave fail-stops one live node with no goodbye, refusing to shrink
	// the population below two.
	Leave() bool
	// KillZone fail-stops every live node whose ID falls in the region and
	// returns how many died (correlated regional failure).
	KillZone(zone idspace.Region) int
	// Partition splits the network at the coordinate: datagrams between
	// nodes on opposite sides vanish in flight until Heal.
	Partition(split idspace.ID)
	Heal()
}

// Portable is a phase that needs nothing but a World, so every backend
// can play it. TreeP-only phases (RevivalWave, IslandsMerge, the storage
// workloads) reach into the cluster through *Engine and implement Phase
// alone.
type Portable interface {
	Phase
	// Drive runs the phase against w, drawing event times from rng.
	Drive(w World, rng *rand.Rand)
}

// runUntil advances w's clock to the absolute virtual time t.
func runUntil(w World, t time.Duration) {
	if d := t - w.Now(); d > 0 {
		w.Run(d)
	}
}

// expDelay draws a Poisson inter-arrival gap for the given events/second
// rate from rng; a non-positive rate means the event never fires.
func expDelay(rng *rand.Rand, rate float64) time.Duration {
	if rate <= 0 {
		return maxDuration
	}
	return time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
}

// poisson plays independent Poisson streams against w in time order:
// stream i fires at rates[i] events per second by calling fire(i), up to
// and including the absolute time last. First gaps are drawn in index
// order, a stream's next gap right after it fires, and streams due at the
// same instant fire lowest index first — the draw order every recorded
// trajectory depends on. The clock is left at the last event; the caller
// runs out its window.
func poisson(w World, rng *rand.Rand, last time.Duration, rates []float64, fire func(stream int)) {
	now := w.Now()
	next := make([]time.Duration, len(rates))
	for i, r := range rates {
		next[i] = maxDuration
		if d := expDelay(rng, r); d < maxDuration {
			next[i] = now + d
		}
	}
	for {
		which, at := -1, maxDuration
		for i, t := range next {
			if t < at {
				which, at = i, t
			}
		}
		if which < 0 || at > last {
			return
		}
		runUntil(w, at)
		fire(which)
		next[which] = at + expDelay(rng, rates[which])
	}
}

// Settle runs the overlay quietly for a duration: maintenance, repair and
// elections proceed with no injected events. Every stress phase is
// normally followed by one before invariants are asserted.
type Settle struct {
	For time.Duration
}

// Name implements Phase.
func (Settle) Name() string { return "settle" }

// Run implements Phase.
func (s Settle) Run(e *Engine) { s.Drive(e, e.rng) }

// Drive implements Portable.
func (s Settle) Drive(w World, _ *rand.Rand) { w.Run(s.For) }

// Churn injects continuous Poisson arrivals and departures: joins spawn
// brand-new nodes that bootstrap through the live overlay (dynamic
// membership), leaves fail-stop random live nodes with no goodbye. This is
// the steady-state regime the kill sweep never reaches.
type Churn struct {
	// For is the phase duration.
	For time.Duration
	// JoinRate and LeaveRate are Poisson intensities in events per virtual
	// second. Either may be zero.
	JoinRate, LeaveRate float64
}

// Name implements Phase.
func (Churn) Name() string { return "churn" }

// Run implements Phase.
func (c Churn) Run(e *Engine) { c.Drive(e, e.rng) }

// Drive implements Portable.
func (c Churn) Drive(w World, rng *rand.Rand) {
	end := w.Now() + c.For
	poisson(w, rng, end, []float64{c.JoinRate, c.LeaveRate}, func(stream int) {
		if stream == 0 {
			w.Join()
		} else {
			w.Leave()
		}
	})
	runUntil(w, end)
}

// FlashCrowd is a mass-arrival burst: Joins new nodes bootstrap over the
// Over window (all at once when Over is zero). It stresses the join path,
// the election machinery and the split rate limiter simultaneously.
type FlashCrowd struct {
	Joins int
	Over  time.Duration
}

// Name implements Phase.
func (FlashCrowd) Name() string { return "flash-crowd" }

// Run implements Phase.
func (f FlashCrowd) Run(e *Engine) { f.Drive(e, e.rng) }

// Drive implements Portable.
func (f FlashCrowd) Drive(w World, _ *rand.Rand) {
	if f.Joins <= 0 {
		return
	}
	step := f.Over / time.Duration(f.Joins)
	for i := 0; i < f.Joins; i++ {
		w.Join()
		if step > 0 {
			w.Run(step)
		}
	}
}

// ZoneFailure fail-stops every live node whose ID falls in a contiguous
// region of the space — a correlated failure that takes out a subtree's
// parents at every level along with their children, unlike the kill
// sweep's uniform sampling. Settle is the repair window run afterwards.
type ZoneFailure struct {
	Zone   idspace.Region
	Settle time.Duration
}

// Name implements Phase.
func (ZoneFailure) Name() string { return "zone-failure" }

// Run implements Phase.
func (z ZoneFailure) Run(e *Engine) { z.Drive(e, e.rng) }

// Drive implements Portable.
func (z ZoneFailure) Drive(w World, _ *rand.Rand) {
	w.KillZone(z.Zone)
	w.Run(z.Settle)
}

// ZoneFraction builds the zone [lo, hi] from fractions of the ID space,
// for callers scripting zones without raw coordinates.
func ZoneFraction(lo, hi float64) idspace.Region {
	return idspace.Region{Lo: idspace.FromFraction(lo), Hi: idspace.FromFraction(hi)}
}

// PartitionHeal splits the network at a coordinate — datagrams between the
// sides vanish in flight — holds the split, then heals it and lets the
// halves re-merge. The paper attributes its failure spikes to exactly this
// kind of partitioning (Figure E).
type PartitionHeal struct {
	// At is the split coordinate; zero means the middle of the space.
	At idspace.ID
	// Hold is how long the partition lasts.
	Hold time.Duration
	// Heal is the settle window after connectivity returns.
	Heal time.Duration
}

// Name implements Phase.
func (PartitionHeal) Name() string { return "partition-heal" }

// Run implements Phase.
func (p PartitionHeal) Run(e *Engine) { p.Drive(e, e.rng) }

// Drive implements Portable.
func (p PartitionHeal) Drive(w World, _ *rand.Rand) {
	at := p.At
	if at == 0 {
		at = idspace.MaxID / 2
	}
	w.Partition(at)
	w.Run(p.Hold)
	w.Heal()
	w.Run(p.Heal)
}

// RevivalWave brings dead nodes back over a window: each revived node
// keeps its identity and stale protocol state and re-joins through a live
// bootstrap, as after a rolling restart or a power-restored rack.
type RevivalWave struct {
	// Count caps how many nodes revive; non-positive revives all dead.
	Count int
	// Over is the window the revivals spread across.
	Over time.Duration
}

// Name implements Phase.
func (RevivalWave) Name() string { return "revival-wave" }

// Run implements Phase.
func (w RevivalWave) Run(e *Engine) {
	dead := e.C.DeadNodes()
	count := w.Count
	if count <= 0 || count > len(dead) {
		count = len(dead)
	}
	if count == 0 {
		return
	}
	step := w.Over / time.Duration(count)
	for i := 0; i < count; i++ {
		n := dead[i]
		alive := e.C.AliveNodes()
		if len(alive) == 0 {
			return
		}
		boot := alive[e.rng.Intn(len(alive))]
		e.C.Revive(n)
		n.Join(boot.Addr())
		e.res.Revived++
		if step > 0 {
			e.Run(step)
		}
	}
}

// IslandsMerge fragments the overlay into two fully interleaved islands
// and then re-merges them through exactly ONE bridge link. The link
// filter splits nodes by address parity, so each island's ring spans the
// whole ID space with the other island's members woven between its own —
// the worst case for a merge protocol. During Hold every cross-island
// entry expires and each island converges into its own closed ring
// (self-healing probes drive that internal repair). Heal then restores
// connectivity but creates no links by itself: two converged rings are
// mutually invisible, and repair probes provably cannot cross (no node
// on a probe's walk knows any member of the other ring inside the void
// it probes). The single bridge — one node of one island joining through
// one node of the other — is all the merge protocol gets; the zip
// introductions and first-contact exchanges must rebuild one ring,
// hierarchy, and DHT keyspace from it.
type IslandsMerge struct {
	// Hold is the isolation window; it must exceed the entry TTL so the
	// islands truly separate.
	Hold time.Duration
	// Merge is the settle window after the bridge join.
	Merge time.Duration
}

// Name implements Phase.
func (IslandsMerge) Name() string { return "islands-merge" }

// Run implements Phase.
func (p IslandsMerge) Run(e *Engine) {
	side := func(n *core.Node) bool { return n.Addr()%2 == 0 }
	e.C.PartitionBy(side)
	e.Run(p.Hold)
	e.C.Heal()
	// One bridge: the lowest-ID live node of each island, deterministic
	// across runs.
	var a, b *core.Node
	for _, n := range e.C.AliveNodes() {
		switch {
		case side(n) && (a == nil || n.ID() < a.ID()):
			a = n
		case !side(n) && (b == nil || n.ID() < b.ID()):
			b = n
		}
	}
	if a != nil && b != nil {
		a.Join(b.Addr())
	}
	e.Run(p.Merge)
}
