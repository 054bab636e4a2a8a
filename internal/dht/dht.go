// Package dht realises the paper's claim that TreeP "can be easily
// modified to provide Distributed Hash Table (DHT) functionality" as a
// churn-resilient replicated store. Keys hash into the same 1-D space as
// nodes, the TreeP lookup resolves the owner (the node nearest the key),
// and the owner holds the record with copies on its ring neighbours.
//
// Records are versioned: the owner assigns a monotonically increasing
// per-key version on every store, and every copy carries (version, origin)
// where origin is the writer that caused the version. Replicas merge by
// that pair — newest version wins, higher origin breaks ties — so any two
// nodes holding copies of a key converge to the same record no matter the
// order or duplication of deliveries. Conditional stores (PutIf) are
// accepted only while the owner's current version matches the writer's
// base, which turns read-modify-write sequences into compare-and-swap
// loops instead of lost updates.
//
// Durability is active, not put-time-only:
//
//   - periodic replica maintenance re-replicates every owned record when
//     the owner's ring neighbourhood changes (a replica died or a new
//     neighbour joined), and re-pushes records whose version moved;
//   - ownership handoff: a node that finds a known peer closer to one of
//     its keys pushes the record to that peer and, once acknowledged,
//     drops its copy only if it is no longer within replica distance; a
//     copy a closer peer is known to hold is not sent again;
//   - read-repair: an owner that misses on a Get consults its ring
//     neighbours before answering, adopts the highest-versioned surviving
//     copy, and serves it — so a freshly responsible node heals from its
//     replicas on first touch instead of returning not-found.
//
// The request/response plumbing (request ids, deadlines, retries, the
// owner lookup carrying a request) is this package's own (call.go); the
// same Put/Get code path runs over the deterministic simulator and over
// real UDP sockets.
package dht

import (
	"errors"
	"sync"
	"time"
	"unsafe"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
)

// Errors returned by Put/Get callbacks.
var (
	// ErrLookupFailed: the overlay could not resolve the key's owner.
	ErrLookupFailed = errors.New("dht: owner lookup failed")
	// ErrTimeout: no answer came back in time, the routed request's
	// lookup included.
	ErrTimeout = errors.New("dht: request timed out")
	// ErrNotFound: the owner answered but has no value for the key.
	ErrNotFound = errors.New("dht: key not found")
	// ErrConflict: a conditional store's base version no longer matches;
	// re-read and retry the read-modify-write.
	ErrConflict = errors.New("dht: version conflict")
)

// AnyVersion is the PutIf base that matches only a key with no record yet.
const AnyVersion = 0

// Record is one versioned key-value pair as seen by a reader.
type Record struct {
	Value   []byte
	Version uint64
	Origin  uint64
}

// record is the stored form, with placement bookkeeping.
type record struct {
	value   []byte
	version uint64
	origin  uint64
	// placedSig and placedVersion remember where which version is known to
	// be: on the owner the ring signature of its last replica push, on any
	// other holder the closer node that acknowledged this version (placedAt)
	// or pushed it here as the key's owner (placedBy). Maintenance sends
	// when one of them changed.
	placedSig     uint64
	placedVersion uint64
}

// Stats counts DHT events on one node.
type Stats struct {
	PutsServed uint64 // store requests served as owner
	GetsServed uint64 // fetch requests served
	Stored     uint64 // merges that accepted a new record or version
	Conflicts  uint64 // conditional stores rejected
	Replicas   uint64 // replica pushes sent
	Handoffs   uint64 // ownership handoffs initiated
	Dropped    uint64 // local copies released after handoff
	Consults   uint64 // fetch misses that consulted replicas
	Repairs    uint64 // records adopted from a replica on read-repair
	Retries    uint64 // request attempts re-sent or re-routed
}

// Service layers the replicated store on a TreeP node. Create one per node
// with Attach; all methods must run on the node's event loop (as with
// Node). Callers must not mutate key or value slices they pass in until
// the callback fires.
type Service struct {
	node *core.Node

	// pending holds the calls in flight by request id; a peer has a few
	// (DESIGN.md §16).
	pending idspace.Keyed[uint64, *call]
	nextID  uint64

	// recs is the authoritative store; maintenance walks it in key order.
	recs idspace.Keyed[idspace.ID, *record]

	// nudgePending debounces ring-change nudges: a merge zip reports a
	// burst of new contacts, and one maintenance pass covers them all.
	nudgePending bool

	maintTimer core.Timer
	scratch    []proto.NodeRef

	// memos is a bounded ring of recent store outcomes keyed by
	// (requester, request id). A store whose ack was lost is retried
	// under the same request id; without replaying the recorded outcome
	// the owner would re-apply the store — bumping the version again and,
	// worse, answering a conditional store that already committed with a
	// spurious conflict. The ring grows on demand to storeMemoSize slots
	// (most peers own a handful of stores, ever), then memoPos is the
	// oldest.
	memos   []storeMemo
	memoPos int

	// Stats counters.
	Stats Stats
}

// MemBytes reports the heap the service holds: the store with the values
// its records point to, and the struct with its pending-call table, memo
// ring, scratch and three bound methods (extension, maintenance and ring
// hooks, 16 B each); the call records are pooled.
func (s *Service) MemBytes() (store, fixed int) {
	store = s.recs.MemBytes() + s.recs.Len()*int(unsafe.Sizeof(record{}))
	for _, k := range s.recs.Keys() {
		r, _ := s.recs.Get(k)
		store += cap(r.value)
	}
	fixed = int(unsafe.Sizeof(*s)) + s.pending.MemBytes() + 3*16 +
		cap(s.memos)*int(unsafe.Sizeof(storeMemo{})) + cap(s.scratch)*int(unsafe.Sizeof(proto.NodeRef{}))
	return store, fixed
}

// storeMemoSize bounds the ack-replay window. Retries arrive within one
// request timeout; 64 in-flight stores per owner is far beyond any real
// concurrency here.
const storeMemoSize = 64

type storeMemo struct {
	from    uint64
	reqID   uint64
	status  proto.StoreStatus
	version uint64
	origin  uint64
}

const (
	// replicationFactor is the total number of copies a record aims for:
	// the owner plus two ring neighbours.
	replicationFactor = 3
	// requestTimeout bounds each attempt of a handoff (half of it is a
	// keyed call's backoff, and a consult's deadline); requestRetries is
	// how many times a failed keyed attempt is re-tried, routed afresh
	// each time.
	requestTimeout = 2 * time.Second
	requestRetries = 2
	// maintainInterval is the replica-maintenance cadence.
	maintainInterval = 2 * time.Second
)

// Attach creates the service and hooks it into the node's extension slot,
// replacing whatever extension was installed before.
func Attach(n *core.Node) *Service {
	s := &Service{node: n}
	n.SetExtension(s.handle)
	s.maintTimer = n.SetPeriodic(maintainInterval, s.maintainTick)
	n.SetRingChangeHook(s.ringNudge)
	return s
}

// ringNudge reacts to a ring-adjacency change reported by the core — a
// repaired gap, a merged partition. One near-immediate maintenance pass
// re-runs ownership handoff and replica placement, so keys whose owner
// changed in a merge reconcile in milliseconds instead of waiting out
// maintainInterval. The periodic tick remains the backstop.
func (s *Service) ringNudge() {
	if s.nudgePending {
		return
	}
	s.nudgePending = true
	s.Node().SetTimer(ringNudgeDelay, func() {
		s.nudgePending = false
		s.maintainTick()
	})
}

// ringNudgeDelay lets one zip burst settle before reconciling.
const ringNudgeDelay = 250 * time.Millisecond

// Node returns the underlying TreeP node.
func (s *Service) Node() *core.Node { return s.node }

// Len returns the number of records stored locally.
func (s *Service) Len() int { return s.recs.Len() }

// LocalHashed returns the locally stored record for a hashed key, for the
// durability checkers, tests and diagnostics.
func (s *Service) LocalHashed(k idspace.ID) (Record, bool) {
	if rec, ok := s.recs.Get(k); ok {
		return Record{Value: rec.value, Version: rec.version, Origin: rec.origin}, true
	}
	return Record{}, false
}

// Put stores value under key unconditionally: the owner assigns the next
// version. cb fires exactly once.
func (s *Service) Put(key []byte, value []byte, cb func(error)) {
	s.storeVia(key, value, false, 0, cb)
}

// PutIf stores value under key only while the owner's current version
// equals base (AnyVersion for "no record yet"): compare-and-swap for
// read-modify-write writers. On ErrConflict re-read and retry. cb receives
// the resulting version on success.
func (s *Service) PutIf(key []byte, value []byte, base uint64, cb func(version uint64, err error)) {
	s.storeVia(key, value, true, base, cb)
}

// storeVia runs a Put (cb a func(error)) or a PutIf (a func(uint64, error)).
func (s *Service) storeVia(key, value []byte, cond bool, base uint64, cb any) {
	k := idspace.HashKey(key)
	o := newOp(cb)
	o.store = proto.DHTStore{Key: k, Value: value, Base: base, Cond: cond}
	s.callOwner(k, &o.store, o.stored)
}

// Get fetches the value for key. cb fires exactly once with the value or
// an error.
func (s *Service) Get(key []byte, cb func([]byte, error)) { s.get(key, cb) }

// GetRecord fetches the record for key with its version, for writers that
// intend a PutIf against what they read.
func (s *Service) GetRecord(key []byte, cb func(Record, error)) { s.get(key, cb) }

// get runs a Get (cb a func([]byte, error)) or a GetRecord (a
// func(Record, error)).
func (s *Service) get(key []byte, cb any) {
	k := idspace.HashKey(key)
	o := newOp(cb)
	o.fetch = proto.DHTFetch{Key: k}
	s.callOwner(k, &o.fetch, o.fetched)
}

// op is one Get, GetRecord, Put or PutIf in flight: the request its call
// sends copies of, and the caller's callback. Its two reply callbacks
// are bound once, when the record is made; records come from opPool, which
// is process-wide as proto's message pools are, and go back to it before
// the caller is answered.
type op struct {
	fetch proto.DHTFetch
	store proto.DHTStore
	cb    any

	fetched, stored func(proto.SvcMessage, error)
}

var opPool sync.Pool

func newOp(cb any) *op {
	o, _ := opPool.Get().(*op)
	if o == nil {
		o = new(op)
		o.fetched, o.stored = o.onFetched, o.onStored
	}
	o.cb = cb
	return o
}

// release hands the record back to opPool, returning the caller's callback.
func (o *op) release() (cb any) {
	cb = o.cb
	o.cb, o.store.Value = nil, nil
	opPool.Put(o)
	return cb
}

// onFetched answers a Get or GetRecord.
func (o *op) onFetched(resp proto.SvcMessage, err error) {
	cb := o.release()
	if err != nil {
		answerGet(cb, Record{}, err)
		return
	}
	rep, ok := resp.(*proto.DHTFetchReply)
	if !ok || !rep.Found {
		answerGet(cb, Record{}, ErrNotFound)
		return
	}
	// Copy out: the reply message may be pooled and is recycled when this
	// delivery ends.
	rec := Record{
		Value:   append([]byte(nil), rep.Value...),
		Version: rep.Version,
		Origin:  rep.Origin,
	}
	answerGet(cb, rec, nil)
}

// onStored answers a Put or PutIf.
func (o *op) onStored(resp proto.SvcMessage, err error) {
	cb := o.release()
	if err != nil {
		answerPut(cb, 0, err)
		return
	}
	ack, ok := resp.(*proto.DHTStoreAck)
	switch {
	case !ok:
		answerPut(cb, 0, ErrTimeout)
	case ack.Status == proto.StoreConflict:
		answerPut(cb, ack.Version, ErrConflict)
	default:
		answerPut(cb, ack.Version, nil)
	}
}

// answerGet calls a Get or a GetRecord callback.
func answerGet(cb any, rec Record, err error) {
	if f, ok := cb.(func([]byte, error)); ok {
		f(rec.Value, err)
		return
	}
	cb.(func(Record, error))(rec, err)
}

// answerPut calls a Put or a PutIf callback.
func answerPut(cb any, version uint64, err error) {
	if f, ok := cb.(func(error)); ok {
		f(err)
		return
	}
	cb.(func(uint64, error))(version, err)
}

// --- local store ------------------------------------------------------------

// merge applies an incoming copy by the (version, origin) order and
// reports whether it won. Values are always copied in.
func (s *Service) merge(k idspace.ID, value []byte, version, origin uint64) bool {
	cur, ok := s.recs.Get(k)
	if ok && (version < cur.version || (version == cur.version && origin <= cur.origin)) {
		return false
	}
	if !ok {
		cur = &record{}
		s.recs.Put(k, cur)
	}
	cur.value = append(cur.value[:0], value...)
	cur.version, cur.origin = version, origin
	s.Stats.Stored++
	return true
}

// drop releases the local copy of k.
func (s *Service) drop(k idspace.ID) {
	if s.recs.Delete(k) {
		s.Stats.Dropped++
	}
}

// --- handlers ---------------------------------------------------------------

// handleStore is the owner's store path: version assignment, CAS check,
// immediate replica fan-out, ack. A store for a key this node does not
// hold first consults the replicas of whoever owned it before — otherwise
// a freshly responsible owner would restart versions at 1 and its writes
// would lose every merge against the surviving higher-versioned copies
// (and conditional stores would pass a base check they should fail).
func (s *Service) handleStore(from uint64, m *proto.DHTStore, respond func(proto.SvcMessage)) {
	s.Stats.PutsServed++
	// A retried store (ack lost in flight) replays the recorded outcome
	// instead of re-applying: stores are not idempotent (the owner assigns
	// version current+1 each time), and a committed conditional store
	// re-checked against the bumped version would answer conflict.
	for i := range s.memos {
		mm := &s.memos[i]
		if mm.reqID == m.ReqID && mm.from == from && mm.reqID != 0 {
			ack := proto.Acquire(proto.TDHTStoreAck).(*proto.DHTStoreAck)
			ack.Status, ack.Version, ack.Origin = mm.status, mm.version, mm.origin
			respond(ack)
			return
		}
	}
	if _, ok := s.recs.Get(m.Key); ok {
		// Synchronous path: merge copies the value into the record's own
		// buffer within this frame, so m.Value passes through uncopied.
		s.finishStore(m.Key, m.Value, m.Base, m.Cond, from, m.ReqID, respond)
		return
	}
	// Copy everything out of m before going async: the request message is
	// owned by the sender and this frame only.
	key, base, cond, reqID := m.Key, m.Base, m.Cond, m.ReqID
	value := append([]byte(nil), m.Value...)
	s.consult(key, func(found bool, rec Record) {
		if found {
			s.Stats.Repairs++
			s.merge(key, rec.Value, rec.Version, rec.Origin)
		}
		s.finishStore(key, value, base, cond, from, reqID, respond)
	})
}

// finishStore applies a store against the now-settled current version and
// records the outcome for ack replay.
func (s *Service) finishStore(key idspace.ID, value []byte, base uint64, cond bool, from, reqID uint64,
	respond func(proto.SvcMessage)) {
	var curVersion, curOrigin uint64
	if cur, ok := s.recs.Get(key); ok {
		curVersion, curOrigin = cur.version, cur.origin
	}
	ack := proto.Acquire(proto.TDHTStoreAck).(*proto.DHTStoreAck)
	if cond && base != curVersion {
		s.Stats.Conflicts++
		ack.Status, ack.Version, ack.Origin = proto.StoreConflict, curVersion, curOrigin
	} else {
		version := curVersion + 1
		s.merge(key, value, version, from)
		rec, _ := s.recs.Get(key)
		s.pushReplicas(key, rec)
		rec.placedSig, rec.placedVersion = s.ringSig(), rec.version
		ack.Status, ack.Version, ack.Origin = proto.StoreOK, version, from
	}
	memo := storeMemo{from: from, reqID: reqID, status: ack.Status, version: ack.Version, origin: ack.Origin}
	if len(s.memos) < storeMemoSize {
		s.memos = append(s.memos, memo)
	} else {
		s.memos[s.memoPos] = memo
		s.memoPos = (s.memoPos + 1) % storeMemoSize
	}
	respond(ack)
}

// handleFetch serves reads. A miss on a non-local fetch consults the ring
// neighbours — the replica set of whoever owned the key before us — and
// adopts the best surviving copy before answering (read-repair).
func (s *Service) handleFetch(from uint64, m *proto.DHTFetch, respond func(proto.SvcMessage)) {
	s.Stats.GetsServed++
	if rec, ok := s.recs.Get(m.Key); ok {
		respond(foundReply(rec.value, rec.version, rec.origin))
		return
	}
	if m.Local {
		respond(notFound())
		return
	}
	key := m.Key
	s.consult(key, func(found bool, rec Record) {
		if !found {
			respond(notFound())
			return
		}
		s.Stats.Repairs++
		s.merge(key, rec.Value, rec.Version, rec.Origin)
		cur, _ := s.recs.Get(key)
		respond(foundReply(cur.value, cur.version, cur.origin))
	})
}

// consult queries the ring neighbours for a key this node believes it owns
// but does not hold and reports the newest surviving copy. The sub-fetches
// are Local so a confused neighbourhood cannot recurse. Sub-call deadlines
// are half the request timeout so the answer (including a dead neighbour's
// silence) fits inside the client's own attempt window.
func (s *Service) consult(key idspace.ID, cb func(bool, Record)) {
	targets := s.replicaTargets(key)
	if len(targets) == 0 {
		cb(false, Record{})
		return
	}
	s.Stats.Consults++
	remaining := len(targets)
	best := Record{}
	found := false
	for _, tgt := range targets {
		sub := &proto.DHTFetch{Key: key, Local: true}
		s.callPeer(tgt.Addr, sub, requestTimeout/2, 0,
			func(resp proto.SvcMessage, err error) {
				remaining--
				if err == nil {
					if rep, ok := resp.(*proto.DHTFetchReply); ok && rep.Found {
						if !found || rep.Version > best.Version ||
							(rep.Version == best.Version && rep.Origin > best.Origin) {
							// Copy: the reply is recycled after this delivery.
							best.Value = append(best.Value[:0], rep.Value...)
							best.Version, best.Origin = rep.Version, rep.Origin
							found = true
						}
					}
				}
				if remaining == 0 {
					cb(found, best)
				}
			})
	}
}

// foundReply builds a pooled reply carrying a copy of the value.
func foundReply(value []byte, version, origin uint64) *proto.DHTFetchReply {
	rep := proto.Acquire(proto.TDHTFetchReply).(*proto.DHTFetchReply)
	rep.Found = true
	rep.Value = append(rep.Value[:0], value...)
	rep.Version, rep.Origin = version, origin
	return rep
}

// notFound is the pooled miss reply: a fresh one says Found=false.
func notFound() *proto.DHTFetchReply {
	return proto.Acquire(proto.TDHTFetchReply).(*proto.DHTFetchReply)
}

// handleReplicate merges a pushed copy; ReqID zero is fire-and-forget.
func (s *Service) handleReplicate(from uint64, m *proto.DHTReplicate, respond func(proto.SvcMessage)) {
	stored := s.merge(m.Key, m.Value, m.Version, m.Origin)
	if stored {
		// The sender holds what it sent, and a fire-and-forget push is an
		// owner placing its replicas. An equal copy changes nothing: two
		// would-be owners would otherwise trade pushes every tick.
		mark := placedAt(from)
		if m.ReqID == 0 {
			mark = placedBy(from)
		}
		rec, _ := s.recs.Get(m.Key)
		rec.placedSig, rec.placedVersion = mark, rec.version
	}
	if m.ReqID == 0 {
		respond(nil)
		return
	}
	ack := proto.Acquire(proto.TDHTReplicateAck).(*proto.DHTReplicateAck)
	ack.Stored = stored
	respond(ack)
}

// --- replica maintenance ----------------------------------------------------

// maintainTick walks the local records (deterministic key order): records
// this node still owns are re-pushed to the current replica set when the
// neighbourhood or the version changed since the last push; records a
// known closer node should own are handed off unless a closer node is
// known to hold this version. A copy outside the replica set is offered
// until a fresh acknowledgement releases it, never on the memory of one:
// every closer node may have died inside the freshness window.
func (s *Service) maintainTick() {
	if s.recs.Len() == 0 {
		return
	}
	sig := s.ringSig()
	for _, k := range s.recs.Keys() {
		rec, _ := s.recs.Get(k)
		current := rec.placedVersion == rec.version
		owner, closer, held := s.closer(k, rec.placedSig)
		switch {
		case closer == 0:
			if !current || rec.placedSig != sig {
				s.pushReplicas(k, rec)
				rec.placedSig, rec.placedVersion = sig, rec.version
			}
		case current && rec.placedSig == placedBy(owner.Addr):
			// The believed owner placed this version here: the replica set
			// is its to keep, and a count of closer contacts swollen by a
			// passing exchange (a new parent's hello, a ring zip) does not
			// overrule it.
		case !current || !held || closer >= replicationFactor:
			s.handoff(k, rec, owner)
		}
	}
}

// replicaOf builds one push of rec: a pooled message with its own copy of
// the value, which the network recycles. In the simulator payloads travel
// by reference, and the record may be rewritten while the datagram is in
// flight.
func (s *Service) replicaOf(k idspace.ID, rec *record) *proto.DHTReplicate {
	m := proto.Acquire(proto.TDHTReplicate).(*proto.DHTReplicate)
	m.From, m.Key, m.Version, m.Origin = s.Node().Ref(), k, rec.version, rec.origin
	m.Value = append(m.Value, rec.value...)
	return m
}

// pushReplicas sends fire-and-forget copies of rec to the key's current
// replica targets.
func (s *Service) pushReplicas(k idspace.ID, rec *record) {
	for _, tgt := range s.replicaTargets(k) {
		s.Stats.Replicas++
		s.Node().Send(tgt.Addr, s.replicaOf(k, rec))
	}
}

// handoff pushes rec to a closer node (the believed new owner) and, once
// acknowledged (a lost request is retried next tick), records the
// placement and drops the local copy if this node is outside the replica
// set — so records migrate toward joiners instead of being lost when the
// old owner eventually departs.
func (s *Service) handoff(k idspace.ID, rec *record, owner proto.NodeRef) {
	s.Stats.Handoffs++
	version := rec.version
	push := s.replicaOf(k, rec) // the call sends copies of it
	s.callPeer(owner.Addr, push, requestTimeout, 1,
		func(resp proto.SvcMessage, err error) {
			proto.ReleaseDecoded(push)
			if err != nil {
				return // keep the copy; next tick retries
			}
			cur, ok := s.recs.Get(k)
			if !ok || cur.version != version {
				return // rewritten while in flight; next tick reconsiders
			}
			cur.placedSig, cur.placedVersion = placedAt(owner.Addr), version
			if _, closer, _ := s.closer(k, cur.placedSig); closer >= replicationFactor {
				s.drop(k)
			}
		})
}

// ReplicaTargets returns up to replicationFactor-1 fresh ring contacts
// nearest to k: the replica set this node would push to as owner, and the
// consult set it would query on a miss. The slice is a shared scratch
// buffer; callers must not retain it across another call into the service.
// Exposed for the scenario engine's durability checker, which mirrors the
// Get path statically.
func (s *Service) ReplicaTargets(k idspace.ID) []proto.NodeRef { return s.replicaTargets(k) }

func (s *Service) replicaTargets(k idspace.ID) []proto.NodeRef {
	const want = replicationFactor - 1
	l0 := &s.Node().Table().Level0
	now, ttl := s.Node().Now(), core.EntryTTL
	// Collect up to `want` fresh contacts from each side, then keep the
	// `want` nearest by distance. The ID space is a line, not a ring: a
	// key near an extreme has fewer (or no) contacts on one side, and
	// taking a fixed count per side would under-replicate it — the far
	// side must make up the difference.
	out := l0.AppendNeighborsFreshK(s.scratch[:0], k, now, ttl, want, true)
	out = l0.AppendNeighborsFreshK(out, k, now, ttl, want, false)
	// Self dropped, the rest insertion-sorted in place into the
	// nearest-first order, which is the order the replicas are sent in.
	self := s.Node().Addr()
	n := 0
	for _, r := range out {
		if r.Addr == self {
			continue
		}
		i := n
		for ; i > 0 && proto.Nearer(k, r, out[i-1]); i-- {
			out[i] = out[i-1]
		}
		out[i], n = r, n+1
	}
	s.scratch = out
	return out[:min(n, want)]
}

// closer scans this node's *fresh* level-0 contacts for those strictly
// closer to k than the node itself (lower ID on equal distance): it
// returns how many there are, the nearest of them, and whether one of them
// is the holder that mark names (placedAt, placedBy). A count above zero
// means the key has a better owner to hand off to; a count of
// replicationFactor or more means this node is outside the key's replica
// set and need not keep a copy. Only direct-fresh contacts count: handing
// off to a dead-but-unexpired neighbour burns the call's retries for
// nothing, and letting one displace a live replica makes churn concentrate
// every copy on one node (the survivors each see the corpses as "closer"
// and drop), so that a single further failure loses the record. The marked
// holder may be any closer contact: one that is not a ring neighbour is
// pinged by nobody and direct-fresh only now and then, and a mark tied to
// the nearest would flip with every lapse.
func (s *Service) closer(k idspace.ID, mark uint64) (nearest proto.NodeRef, count int, held bool) {
	l0 := &s.Node().Table().Level0
	now, ttl := s.Node().Now(), core.EntryTTL
	selfID := s.Node().ID()
	dSelf := idspace.Dist(selfID, k)
	for i := range l0.Len() {
		r, e := l0.At(i)
		if r.Addr == s.Node().Addr() || !e.DirectFresh(now, ttl) {
			continue
		}
		d := idspace.Dist(r.ID, k)
		if d > dSelf || (d == dSelf && r.ID >= selfID) {
			continue
		}
		if count == 0 || proto.Nearer(k, r, nearest) {
			nearest = r
		}
		count++
		held = held || placedAt(r.Addr) == mark || placedBy(r.Addr) == mark
	}
	return nearest, count, held
}

// ringSig hashes this node's two fresh ring neighbours, the contacts core
// pings and so the only ones whose silence means death; a changed
// signature means one died or a new neighbour joined, and every owned
// record needs a re-push. (Contacts further along lapse from direct
// freshness while nothing changes.)
func (s *Service) ringSig() uint64 {
	l, r := s.Node().Table().Level0.NeighborsFresh(s.Node().ID(), s.Node().Now(), core.EntryTTL)
	return mix(mix(0, l.Addr), r.Addr)
}

// placedAt is the placement mark of a copy known to be at holder; the '@'
// it starts from keeps it out of ringSig's domain, which starts from 0.
func placedAt(holder uint64) uint64 { return mix('@', holder) }

// placedBy is the mark of a copy that holder, as the key's owner, pushed
// here: held there too, and placed here by the one that keeps the replica
// set. The '#' keeps it apart from placedAt's domain.
func placedBy(holder uint64) uint64 { return mix('#', holder) }

// mix folds one word into a running 64-bit hash (the splitmix64 finaliser
// over the sum): the same in every process, as the marks must be for two
// runs of one seed to agree.
func mix(h, x uint64) uint64 {
	h += x + 0x9e3779b97f4a7c15
	h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
	h = (h ^ h>>27) * 0x94d049bb133111eb
	return h ^ h>>31
}
