package scenario

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/simrt"
)

// lookupChurn is Churn with a third Poisson stream: single-attempt AlgoG
// lookups from random live origins to random coordinates, nobody retrying
// on the caller's behalf. It is the benchmark's sim-churn client with the
// retry loop taken away, which is how the paper counts failed lookups.
type lookupChurn struct {
	Churn
	LookupRate float64

	attempts, failed, abandoned int
	worst                       time.Duration // slowest callback
}

func (p *lookupChurn) Run(e *Engine) {
	now := e.C.Now()
	end := now + p.For
	next := [3]time.Duration{now + e.expDelay(p.JoinRate), now + e.expDelay(p.LeaveRate), now + e.expDelay(p.LookupRate)}
	pending := map[*core.Node]int{}
	for {
		k := 0
		for i := range next {
			if next[i] < next[k] {
				k = i
			}
		}
		if next[k] > end {
			break
		}
		e.advanceUntil(next[k])
		switch k {
		case 0:
			e.join()
			next[0] += e.expDelay(p.JoinRate)
		case 1:
			e.leave()
			next[1] += e.expDelay(p.LeaveRate)
		case 2:
			alive := e.C.AliveNodes()
			origin := alive[e.rng.Intn(len(alive))]
			p.attempts++
			pending[origin]++
			start := e.C.Now()
			origin.Lookup(idspace.ID(e.rng.Uint64()), proto.AlgoG, func(r core.LookupResult) {
				pending[origin]--
				if took := e.C.Now() - start; took > p.worst {
					p.worst = took
				}
				best := e.C.NodeByAddr(r.Best.Addr)
				if r.Status != core.LookupFound || best == nil || !e.C.Alive(best) {
					p.failed++
				}
			})
			next[2] += e.expDelay(p.LookupRate)
		}
	}
	e.advanceUntil(end)
	// Every lookup ends by its hard timeout; one whose origin was killed
	// has no caller left and is not an attempt.
	e.advance(core.LookupDeadline + time.Second)
	for origin, n := range pending {
		if n == 0 {
			continue
		}
		if e.C.Alive(origin) {
			p.failed += n // never called back: worse than any failure
			p.worst = 1 << 62
		} else {
			p.abandoned += n
			p.attempts -= n
		}
	}
}

// TestLookupsSurviveChurn is the paper's resilience claim as a number:
// N=300 under 4 joins + 4 fail-stop leaves a second, sixteen seeds. A
// single lookup attempt, no retry, failed about one time in six before
// hop-level failover; it must now fail at most one time in fifty. The
// links are loss-free, so silence always means a dead peer: no failover
// may turn out to have left a live one. No caller waits past the hard
// timeout, and on the tables the churn leaves behind no static walk runs
// out of TTL.
func TestLookupsSurviveChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("16 N=300 churn simulations; skipped with -short")
	}
	var mu sync.Mutex
	var attempts, failed int
	var stats core.Stats
	t.Run("seeds", func(t *testing.T) {
		for seed := int64(1); seed <= 16; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				c := newCluster(t, 300, seed)
				e := NewEngine(c, Options{})
				load := &lookupChurn{Churn: Churn{For: 30 * time.Second, JoinRate: 4, LeaveRate: 4}, LookupRate: 10}
				e.Play(Settle{For: 8 * time.Second}, load)

				if load.worst > core.LookupDeadline {
					t.Errorf("a caller waited %v, hard timeout is %v", load.worst, core.LookupDeadline)
				}
				st := c.ProtocolStats()
				if st.LookupFalseFailovers != 0 {
					t.Errorf("%d of %d failovers excluded a live peer on loss-free links", st.LookupFalseFailovers, st.LookupFailovers)
				}
				x := NewCtx(c)
				for i := 0; i < 128; i++ {
					alive := c.AliveNodes()
					origin, target := alive[e.rng.Intn(len(alive))], alive[e.rng.Intn(len(alive))]
					if v, ok := walkForLoop(x, origin, target.ID()); !ok && strings.HasPrefix(v.Detail, "TTL exhausted") {
						t.Errorf("static walk ran out of TTL: %s", v)
					}
				}
				t.Logf("attempts=%d failed=%d abandoned=%d worst=%v solicited=%d failovers=%d reissues=%d strict=%d overflows=%d",
					load.attempts, load.failed, load.abandoned, load.worst,
					st.LookupAcksSolicited, st.LookupFailovers, st.LookupReissues, st.LookupsStrict, st.LookupHeldOverflows)
				mu.Lock()
				attempts += load.attempts
				failed += load.failed
				stats.Add(st)
				mu.Unlock()
			})
		}
	})
	t.Logf("16 seeds: %d of %d single attempts failed (%.2f%%); %d failovers, %d re-issues, %d strict forwards",
		failed, attempts, 100*float64(failed)/float64(attempts), stats.LookupFailovers, stats.LookupReissues, stats.LookupsStrict)
	if attempts < 4000 {
		t.Fatalf("only %d attempts: the load did not run", attempts)
	}
	if failed*50 > attempts {
		t.Errorf("%d of %d single attempts failed, want at most 2%%", failed, attempts)
	}
	if stats.LookupFailovers == 0 {
		t.Error("no hop ever failed over: the churn exercised nothing")
	}
}

// walkTracer follows lookup requests through the network trace and
// counts the forwards that reached a dead peer, per lookup. A lookup is
// followed until its origin re-issues it: from then on two copies of it
// may be in flight, which the wire cannot tell apart. The re-issue is the
// origin's send with no verdict after the first; the origin's own
// failover carries one.
//
// In-flight requests are keyed by payload pointer, though the network
// hands each pooled request back to its pool once the hook has seen its
// datagram end, and a later send may carry the same pointer. The key stays
// sound: every reuse starts with a send event, which overwrites the key
// before any arrival of the new datagram is reported, and a dead arrival is
// reported before its release, while the pointer is still the request that
// was sent.
type walkTracer struct {
	inFlight map[*proto.LookupRequest][2]uint64 // sent, not yet arrived: its (origin, reqID)
	starts   map[[2]uint64]int                  // walks each lookup started, re-issues included
	deadAt   map[[3]uint64]bool                 // (origin, reqID, peer) reached dead
	last     map[[2]uint64]uint64               // the peer each lookup last reached dead
	dead     int                                // forwards that reached a dead peer
	again    int                                // of those, to a peer their lookup had reached dead before
	lastOnce int                                // of those, to the peer their lookup had reached dead last
}

func newWalkTracer() *walkTracer {
	return &walkTracer{inFlight: map[*proto.LookupRequest][2]uint64{}, starts: map[[2]uint64]int{},
		deadAt: map[[3]uint64]bool{}, last: map[[2]uint64]uint64{}}
}

func (w *walkTracer) trace(ev netsim.TraceEvent) {
	req, ok := ev.Payload.(*proto.LookupRequest)
	if !ok {
		return
	}
	to := uint64(ev.To)
	if key, ok := w.inFlight[req]; ok && ev.Dropped && ev.Reason == "dead" {
		// Arrival at a dead peer (a send traced earlier).
		delete(w.inFlight, req)
		if w.starts[key] > 1 {
			return
		}
		w.dead++
		at := [3]uint64{key[0], key[1], to}
		if w.deadAt[at] {
			w.again++
		}
		if w.last[key] == to {
			w.lastOnce++
		}
		w.deadAt[at], w.last[key] = true, to
		return
	}
	key := [2]uint64{req.Origin.Addr, req.ReqID}
	if uint64(ev.From) == key[0] && req.Hops == 1 && req.Silent == 0 {
		w.starts[key]++
	}
	w.inFlight[req] = key
}

// TestWalksNeverRevisitTheirSilentPeer: under the churn of
// TestLookupsSurviveChurn, no walk sends again to the peer it last found
// silent, though the hop after a failover knows that peer from the request
// alone and its own table may well list it nearest the target. The verdict
// is one slot: a hop that fails over twice in a row passes on only the
// second peer, and a walk may meet the first again further on. Those
// repeats are logged, not failed.
func TestWalksNeverRevisitTheirSilentPeer(t *testing.T) {
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, seed := range seeds {
		w := newWalkTracer()
		c := simrt.New(simrt.Options{N: 300, Seed: seed, Bulk: true, NetOpts: []netsim.Option{netsim.WithTrace(w.trace)}})
		c.StartAll()
		e := NewEngine(c, Options{})
		load := &lookupChurn{Churn: Churn{For: 30 * time.Second, JoinRate: 4, LeaveRate: 4}, LookupRate: 10}
		e.Play(Settle{For: 8 * time.Second}, load)
		st := c.ProtocolStats()
		t.Logf("seed %d: %d lookups, %d failovers; %d forwards reached a dead peer, %d one their lookup had reached dead before, %d the one it had last",
			seed, len(w.starts), st.LookupFailovers, w.dead, w.again, w.lastOnce)
		if st.LookupFailovers == 0 || w.dead == 0 {
			t.Fatalf("seed %d: no forward reached a dead peer: the churn exercised nothing", seed)
		}
		if w.lastOnce != 0 {
			t.Errorf("seed %d: %d of %d forwards went back to the peer their lookup had last found silent", seed, w.lastOnce, w.dead)
		}
	}
}
