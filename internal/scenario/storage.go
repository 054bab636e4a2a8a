package scenario

import (
	"fmt"
	"sync"
	"time"

	"treep/internal/core"
	"treep/internal/dht"
	"treep/internal/idspace"
)

// Storage makes DHT records a first-class scenario workload: it binds a
// dht.Service to every cluster node (including nodes churned in
// mid-scenario), keeps a ledger of every record the scenario wrote, and
// backs the durability checkers that judge whether the overlay kept its
// data through the timeline.
type Storage struct {
	services map[uint64]*dht.Service

	// mu guards the ledger, the counters and wave bookkeeping against
	// concurrent completion callbacks: on a sharded cluster a Put/Get
	// callback runs on the issuing node's shard worker, and two requests
	// issued through different shards may complete in the same epoch.
	// The protected results are commutative (counters, a sorted+deduped
	// key set), so determinism does not depend on completion order.
	mu sync.Mutex

	// ledger holds every key the scenario successfully wrote, with the raw
	// key bytes for re-reading; reads pick from it by rank.
	ledger idspace.Keyed[idspace.ID, []byte]

	// Workload counters (read by benchmarks and tests).
	Puts, PutFails uint64
	Gets, GetMiss  uint64
}

// NewStorage creates an empty storage context.
func NewStorage() *Storage {
	return &Storage{services: map[uint64]*dht.Service{}}
}

// Attach creates and binds a DHT service on one node (the engine calls
// this for nodes spawned mid-scenario).
func (st *Storage) Attach(n *core.Node) {
	if _, ok := st.services[n.Addr()]; !ok {
		st.Bind(dht.Attach(n))
	}
}

// Bind registers an existing service (a caller that attached DHT services
// itself — the public SimNetwork does — shares them with the scenario).
func (st *Storage) Bind(s *dht.Service) {
	st.services[s.Node().Addr()] = s
}

// Service returns the bound service for a node address (nil if none).
func (st *Storage) Service(addr uint64) *dht.Service { return st.services[addr] }

// Records returns the number of ledgered records.
func (st *Storage) Records() int { return st.ledger.Len() }

// notePut is a Put's completion: it counts a failure, or ledgers the key.
// It takes mu, as every completion callback must.
func (st *Storage) notePut(rawKey []byte, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err != nil {
		st.PutFails++
		return
	}
	k := idspace.HashKey(rawKey)
	if _, ok := st.ledger.Get(k); !ok {
		st.ledger.Put(k, append([]byte(nil), rawKey...))
	}
}

// noteGet is a Get's completion: it counts a miss, under mu.
func (st *Storage) noteGet(err error) {
	if err != nil {
		st.mu.Lock()
		st.GetMiss++
		st.mu.Unlock()
	}
}

// serviceOf picks the storage client bound to a live node, preferring the
// engine's deterministic random stream.
func (st *Storage) serviceOf(e *Engine) *dht.Service {
	alive := e.C.AliveNodes()
	for tries := 0; tries < 8 && len(alive) > 0; tries++ {
		nd := alive[e.rng.Intn(len(alive))]
		if s := st.services[nd.Addr()]; s != nil {
			return s
		}
	}
	return nil
}

// --- phases -----------------------------------------------------------------

// StoreRecords seeds Count records through random live writers and ledgers
// every acknowledged write; the durability checkers judge the ledger at
// sample time. Writes are issued in small concurrent waves and the phase
// drives the clock until each wave acknowledges.
type StoreRecords struct {
	Count int
	// Prefix namespaces the keys (default "rec"), so multiple store phases
	// in one timeline write distinct key sets.
	Prefix string
}

// Name implements Phase.
func (StoreRecords) Name() string { return "store-records" }

// Run implements Phase.
func (p StoreRecords) Run(e *Engine) {
	st := e.opts.Storage
	if st == nil || p.Count <= 0 {
		return
	}
	prefix := p.Prefix
	if prefix == "" {
		prefix = "rec"
	}
	const wave = 32
	for base := 0; base < p.Count; base += wave {
		end := base + wave
		if end > p.Count {
			end = p.Count
		}
		pending := 0
		for i := base; i < end; i++ {
			s := st.serviceOf(e)
			if s == nil {
				st.PutFails++
				continue
			}
			key := []byte(fmt.Sprintf("%s-%06d", prefix, i))
			value := []byte(fmt.Sprintf("v-%s-%06d", prefix, i))
			pending++
			st.Puts++
			s.Put(key, value, func(err error) {
				st.notePut(key, err)
				st.mu.Lock()
				pending--
				st.mu.Unlock()
			})
		}
		deadline := e.C.Now() + 30*time.Second
		for e.C.Now() < deadline && !e.C.Interrupted() {
			st.mu.Lock()
			done := pending == 0
			st.mu.Unlock()
			if done {
				break
			}
			e.Run(100 * time.Millisecond)
		}
	}
}

// StorageWorkload drives a continuous put/get mix — optionally with
// concurrent membership churn, the regime the one-shot replication of the
// old DHT silently lost data under. Reads draw from the ledger and count
// misses; writes go to fresh keys and extend the ledger.
type StorageWorkload struct {
	// For is the phase duration.
	For time.Duration
	// PutRate and GetRate are Poisson intensities in ops per virtual
	// second. Either may be zero.
	PutRate, GetRate float64
	// JoinRate and LeaveRate inject churn concurrently with the workload
	// (zero for a quiet overlay).
	JoinRate, LeaveRate float64
	// Prefix namespaces workload keys (default "wl").
	Prefix string
}

// Name implements Phase.
func (StorageWorkload) Name() string { return "storage-workload" }

// Run implements Phase.
func (w StorageWorkload) Run(e *Engine) {
	st := e.opts.Storage
	if st == nil {
		// No storage context: degrade to plain churn so timelines stay
		// comparable.
		Churn{For: w.For, JoinRate: w.JoinRate, LeaveRate: w.LeaveRate}.Run(e)
		return
	}
	prefix := w.Prefix
	if prefix == "" {
		prefix = "wl"
	}
	end := e.C.Now() + w.For
	seq := 0
	// An event due exactly at end belongs to the next phase: last is end-1.
	poisson(e, e.rng, end-1, []float64{w.PutRate, w.GetRate, w.JoinRate, w.LeaveRate}, func(stream int) {
		switch stream {
		case 0: // put
			if s := st.serviceOf(e); s != nil {
				key := []byte(fmt.Sprintf("%s-%06d", prefix, seq))
				value := []byte(fmt.Sprintf("v-%s-%06d", prefix, seq))
				seq++
				st.Puts++
				s.Put(key, value, func(err error) { st.notePut(key, err) })
			}
		case 1: // get
			if st.ledger.Len() > 0 {
				if s := st.serviceOf(e); s != nil {
					raw, _ := st.ledger.Get(st.ledger.Keys()[e.rng.Intn(st.ledger.Len())])
					st.mu.Lock()
					st.Gets++
					st.mu.Unlock()
					s.Get(raw, func(_ []byte, err error) { st.noteGet(err) })
				}
			}
		case 2:
			e.Join()
		case 3:
			e.Leave()
		}
	})
	e.advanceUntil(end)
}

// --- durability checkers ----------------------------------------------------

// StorageCheckers returns the storage invariants; append them to
// AllCheckers when the scenario carries a Storage context.
func StorageCheckers(minReadable float64) []Checker {
	return []Checker{StorageNoLoss(), StorageDurability(minReadable)}
}

// StorageNoLoss flags every ledgered record with no live holder at all:
// such a record is unrecoverable — durability, not availability, was lost.
func StorageNoLoss() Checker {
	return Checker{Name: "storage-no-loss", Check: func(x *Ctx) []Violation {
		st := x.Storage
		if st == nil {
			return nil
		}
		var out []Violation
		for _, k := range st.ledger.Keys() {
			if !anyLiveHolder(x, st, k) {
				out = append(out, Violation{
					Checker: "storage-no-loss",
					Detail:  fmt.Sprintf("record %v has no live holder", k),
				})
			}
		}
		return out
	}}
}

// StorageDurability checks that at least minReadable of the ledgered
// records are *readable*: the static mirror of the Get path — the live
// node nearest the key holds the record, or one of its consult targets
// does (read-repair would heal and serve it). One aggregate violation is
// reported when the fraction falls below the threshold.
func StorageDurability(minReadable float64) Checker {
	return Checker{Name: "storage-durability", Check: func(x *Ctx) []Violation {
		st := x.Storage
		if st == nil || st.ledger.Len() == 0 {
			return nil
		}
		readable := 0
		for _, k := range st.ledger.Keys() {
			if recordReadable(x, st, k) {
				readable++
			}
		}
		frac := float64(readable) / float64(st.ledger.Len())
		if frac >= minReadable {
			return nil
		}
		return []Violation{{
			Checker: "storage-durability",
			Detail: fmt.Sprintf("%d/%d records readable (%.2f%% < %.2f%%)",
				readable, st.ledger.Len(), 100*frac, 100*minReadable),
		}}
	}}
}

// anyLiveHolder reports whether any live node's service holds k.
func anyLiveHolder(x *Ctx, st *Storage, k idspace.ID) bool {
	for _, n := range x.C.AliveNodes() {
		s := st.services[n.Addr()]
		if s == nil {
			continue
		}
		if _, ok := s.LocalHashed(k); ok {
			return true
		}
	}
	return false
}

// recordReadable statically mirrors a Get: resolve the true owner (nearest
// live node to k — lookup correctness is the loop-freedom checker's job),
// then accept if the owner holds the record or any node in its consult set
// does.
func recordReadable(x *Ctx, st *Storage, k idspace.ID) bool {
	alive := x.AliveByID()
	if len(alive) == 0 {
		return false
	}
	var owner *core.Node
	var bestD uint64
	for _, n := range alive {
		if d := idspace.Dist(n.ID(), k); owner == nil || d < bestD {
			owner, bestD = n, d
		}
	}
	os := st.services[owner.Addr()]
	if os == nil {
		return false
	}
	if _, ok := os.LocalHashed(k); ok {
		return true
	}
	for _, tgt := range os.ReplicaTargets(k) {
		ts := st.services[tgt.Addr]
		if ts == nil {
			continue
		}
		nd := x.C.NodeByAddr(tgt.Addr)
		if nd == nil || !x.C.Alive(nd) {
			continue
		}
		if _, ok := ts.LocalHashed(k); ok {
			return true
		}
	}
	return false
}
