// Package treep is a Go implementation of TreeP, the tree-based
// peer-to-peer overlay of Hudzia, Kechadi and Ottewill (CLUSTER 2005).
//
// TreeP arranges peers in a B+tree-like hierarchy over a 1-D ID space:
// every peer sits on the level-0 ring, capable peers are elected upward to
// tessellate the space at each level, and lookups route through the
// hierarchy in O(log n) hops with strong resilience to failures. The
// overlay was designed as the discovery and load-balancing substrate for
// grid middleware; this package exposes that functionality plus the DHT
// extension the paper describes.
//
// Two runtimes are provided:
//
//   - a deterministic simulated network (NewSimNetwork) used by the
//     examples, tests and the paper-reproduction benchmarks, and
//   - a real UDP transport (StartUDPNode) running the identical protocol
//     state machines on sockets.
//
// The DHT keeps three copies of every record (the owner and its two
// nearest ring neighbours) and re-replicates, hands off and read-repairs
// them as membership changes. Those are properties of the store, not
// options: DESIGN.md §17 lists the few switches the overlay still has.
//
// See DESIGN.md for the paper-to-code map and EXPERIMENTS.md for the
// reproduction results.
package treep

import (
	"errors"
	"time"

	"treep/internal/core"
	"treep/internal/dget"
	"treep/internal/dht"
	"treep/internal/idspace"
	"treep/internal/nodeprof"
	"treep/internal/proto"
	"treep/internal/scenario"
	"treep/internal/simrt"
	"treep/internal/udptransport"
)

// ID is a coordinate in TreeP's 1-D identifier space.
type ID = idspace.ID

// HashKey maps an arbitrary key into the ID space (used for DHT keys and
// discovery attributes).
func HashKey(key []byte) ID { return idspace.HashKey(key) }

// Algo selects a lookup algorithm from §III.f of the paper.
type Algo = proto.Algo

// Lookup algorithms.
const (
	// AlgoG is the greedy algorithm with the halving-distance rule.
	AlgoG = proto.AlgoG
	// AlgoNG is the non-greedy variant (first improving neighbour).
	AlgoNG = proto.AlgoNG
	// AlgoNGSA is non-greedy with fall-back alternates in the request.
	AlgoNGSA = proto.AlgoNGSA
)

// LookupResult reports a resolved lookup.
type LookupResult = core.LookupResult

// Lookup outcome statuses.
const (
	LookupFound    = core.LookupFound
	LookupNotFound = core.LookupNotFound
	LookupTimeout  = core.LookupTimeout
)

// Resource is a discoverable grid entity (see Directory).
type Resource = dget.Resource

// ChildPolicy decides each node's maximum child count nc.
type ChildPolicy = nodeprof.ChildPolicy

// FixedChildren returns the paper's first evaluation case: nc fixed.
func FixedChildren(nc int) ChildPolicy { return nodeprof.FixedPolicy{NC: nc} }

// CapacityChildren returns the paper's second case: nc scaled between min
// and max by node capability.
func CapacityChildren(min, max int) ChildPolicy { return nodeprof.CapacityPolicy{Min: min, Max: max} }

// SimOptions configures a simulated TreeP network.
type SimOptions struct {
	// N is the number of peers (required).
	N int
	// Seed makes the whole run reproducible (default 1).
	Seed int64
	// Children is the max-children policy (default FixedChildren(4)).
	Children ChildPolicy
	// Height caps the hierarchy height h (default 6, the paper's setting).
	Height uint8
}

// Record is a versioned DHT record: readers that intend a conditional
// write (PutIf) carry its Version as their base.
type Record = dht.Record

// AnyVersion is the PutIf base matching only a key with no record yet.
const AnyVersion = dht.AnyVersion

// Storage errors.
var (
	// ErrConflict: a PutIf base version no longer matches; re-read and
	// retry the read-modify-write.
	ErrConflict = dht.ErrConflict
	// ErrNotFound: the key's owner has no record for it.
	ErrNotFound = dht.ErrNotFound
)

// SimNetwork is a deterministic in-process TreeP deployment. All methods
// are synchronous: they advance the simulation's virtual clock as needed.
// SimNetwork is not safe for concurrent use.
type SimNetwork struct {
	cluster  *simrt.Cluster
	services []*dht.Service
	storage  *scenario.Storage
}

// NewSimNetwork builds a steady-state network of o.N peers, attaches a DHT
// service to each, starts the maintenance protocol and lets it settle.
func NewSimNetwork(o SimOptions) (*SimNetwork, error) {
	if o.N < 2 {
		return nil, errors.New("treep: need at least 2 nodes")
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	cfg := core.Defaults()
	if o.Children != nil {
		cfg.ChildPolicy = o.Children
	}
	if o.Height != 0 {
		cfg.MaxHeight = o.Height
	}
	c := simrt.New(simrt.Options{N: o.N, Seed: o.Seed, Config: cfg, Bulk: true})
	nw := &SimNetwork{cluster: c, storage: scenario.NewStorage()}
	for _, nd := range c.Nodes {
		s := dht.Attach(nd)
		nw.services = append(nw.services, s)
		nw.storage.Bind(s)
	}
	c.StartAll()
	c.Run(8 * time.Second)
	return nw, nil
}

// Run advances the simulated clock by d.
func (nw *SimNetwork) Run(d time.Duration) { nw.cluster.Run(d) }

// Now returns the current virtual time.
func (nw *SimNetwork) Now() time.Duration { return nw.cluster.Now() }

// N returns the total number of peers (alive or dead).
func (nw *SimNetwork) N() int { return len(nw.cluster.Nodes) }

// AliveCount returns the number of live peers.
func (nw *SimNetwork) AliveCount() int { return nw.cluster.AliveCount() }

// NodeID returns peer i's coordinate.
func (nw *SimNetwork) NodeID(i int) ID { return nw.cluster.Nodes[i].ID() }

// NodeLevel returns peer i's current hierarchy level.
func (nw *SimNetwork) NodeLevel(i int) int { return int(nw.cluster.Nodes[i].MaxLevel()) }

// Alive reports whether peer i is up.
func (nw *SimNetwork) Alive(i int) bool { return nw.cluster.Alive(nw.cluster.Nodes[i]) }

// ProtocolStats are the overlay's protocol event counters (messages,
// hierarchy moves, lookup forwards, failovers, re-issues, ...).
type ProtocolStats = core.Stats

// ProtocolStats returns the counters summed over every peer the network
// has run, including peers killed since.
func (nw *SimNetwork) ProtocolStats() ProtocolStats { return nw.cluster.ProtocolStats() }

// Levels returns the number of peers at each hierarchy level.
func (nw *SimNetwork) Levels() map[int]int {
	out := map[int]int{}
	for _, nd := range nw.cluster.AliveNodes() {
		out[int(nd.MaxLevel())]++
	}
	return out
}

// Kill fail-stops peer i (no goodbye messages), as in the paper's
// robustness evaluation.
func (nw *SimNetwork) Kill(i int) { nw.cluster.Kill(nw.cluster.Nodes[i]) }

// KillRandomFraction kills the given fraction of the initial population at
// random and returns how many peers were killed.
func (nw *SimNetwork) KillRandomFraction(frac float64) int {
	rng := nw.cluster.Rand()
	want := int(frac * float64(nw.N()))
	killed := 0
	for killed < want && nw.AliveCount() > 1 {
		nd := nw.cluster.Nodes[rng.Intn(nw.N())]
		if nw.cluster.Alive(nd) {
			nw.cluster.Kill(nd)
			killed++
		}
	}
	return killed
}

// ErrDead is returned for operations on a killed peer.
var ErrDead = errors.New("treep: peer is dead")

// Lookup resolves target from peer origin using the given algorithm,
// advancing the simulation until the result is known.
func (nw *SimNetwork) Lookup(origin int, target ID, algo Algo) (LookupResult, error) {
	nd := nw.cluster.Nodes[origin]
	if !nw.Alive(origin) {
		return LookupResult{}, ErrDead
	}
	res, err := await(nw, core.LookupDeadline+2*time.Second, func(done func(LookupResult, error)) {
		nd.Lookup(target, algo, func(r LookupResult) { done(r, nil) })
	})
	if err != nil {
		return LookupResult{Status: core.LookupTimeout}, nil
	}
	return res, nil
}

// Put stores a key/value pair through peer origin's DHT service.
func (nw *SimNetwork) Put(origin int, key, value []byte) error {
	if !nw.Alive(origin) {
		return ErrDead
	}
	_, err := await(nw, simOpWait, func(done func(struct{}, error)) {
		nw.services[origin].Put(key, value, func(e error) { done(struct{}{}, e) })
	})
	return err
}

// Get fetches a key through peer origin's DHT service.
func (nw *SimNetwork) Get(origin int, key []byte) ([]byte, error) {
	rec, err := nw.GetRecord(origin, key)
	return rec.Value, err
}

// GetRecord fetches a key with its version through peer origin's DHT
// service, for read-modify-write sequences ending in PutIf.
func (nw *SimNetwork) GetRecord(origin int, key []byte) (Record, error) {
	if !nw.Alive(origin) {
		return Record{}, ErrDead
	}
	return await(nw, simOpWait, func(done func(Record, error)) { nw.services[origin].GetRecord(key, done) })
}

// PutIf stores key conditionally on the owner's version matching base
// (compare-and-swap; AnyVersion for "no record yet"). On ErrConflict,
// re-read with GetRecord and retry. Returns the new version on success.
func (nw *SimNetwork) PutIf(origin int, key, value []byte, base uint64) (uint64, error) {
	if !nw.Alive(origin) {
		return 0, ErrDead
	}
	return await(nw, simOpWait, func(done func(uint64, error)) { nw.services[origin].PutIf(key, value, base, done) })
}

// Directory returns a discovery/load-balancing client bound to peer i.
func (nw *SimNetwork) Directory(i int) *Directory {
	return &Directory{nw: nw, dir: dget.NewDirectory(nw.services[i])}
}

// simOpWait bounds one blocking storage or directory operation in virtual
// time.
const simOpWait = 30 * time.Second

// await is the blocking shape of every SimNetwork operation: start issues
// it with a completion callback, and the simulation advances in 100 ms
// steps until the callback has run or within has passed. An operation
// still open then reports dht.ErrTimeout.
func await[T any](nw *SimNetwork, within time.Duration, start func(done func(T, error))) (T, error) {
	var res T
	err := dht.ErrTimeout
	finished := false
	start(func(v T, e error) { res, err, finished = owned(v), e, true })
	deadline := nw.Now() + within
	for !finished && nw.Now() < deadline {
		nw.cluster.Run(100 * time.Millisecond)
	}
	return res, err
}

// owned copies out the value a read's callback is lent (dht.Service.Get),
// inside the callback await and call make anyway; an empty value stays nil.
func owned[T any](v T) T {
	if rec, ok := any(&v).(*Record); ok {
		rec.Value = append([]byte(nil), rec.Value...)
	}
	return v
}

// Directory is a synchronous facade over the discovery layer.
type Directory struct {
	nw  *SimNetwork
	dir *dget.Directory
}

// Advertise registers a resource under its attributes.
func (d *Directory) Advertise(res Resource) error {
	_, err := await(d.nw, simOpWait, func(done func(struct{}, error)) {
		d.dir.Advertise(res, func(e error) { done(struct{}{}, e) })
	})
	return err
}

// Discover lists resources advertised under attribute k=v.
func (d *Directory) Discover(k, v string) ([]Resource, error) {
	return await(d.nw, simOpWait, func(done func([]Resource, error)) { d.dir.Discover(k, v, done) })
}

// PickLeastLoaded returns the matching resource with the most head-room.
func (d *Directory) PickLeastLoaded(k, v string) (Resource, error) {
	return await(d.nw, simOpWait, func(done func(Resource, error)) { d.dir.PickLeastLoaded(k, v, done) })
}

// --- scenarios and invariants -------------------------------------------------

// ScenarioPhase is one segment of a scripted workload timeline; the
// concrete phase types below compose freely. See RunScenario.
type ScenarioPhase = scenario.Phase

// SettlePhase runs the overlay quietly (maintenance and repair only).
type SettlePhase = scenario.Settle

// ChurnPhase injects continuous Poisson joins and departures; joined
// peers are brand-new nodes bootstrapping through the live overlay.
type ChurnPhase = scenario.Churn

// FlashCrowdPhase is a mass-arrival burst.
type FlashCrowdPhase = scenario.FlashCrowd

// ZoneFailurePhase fail-stops every peer in a contiguous slice of the ID
// space (correlated failure; see ZoneFraction).
type ZoneFailurePhase = scenario.ZoneFailure

// PartitionHealPhase splits the network at a coordinate, holds the
// partition, then heals it.
type PartitionHealPhase = scenario.PartitionHeal

// IslandsMergePhase fragments the overlay into two interleaved islands
// (split by address parity), lets each converge into its own ring, then
// re-merges them through exactly one bridge link — the worst case for
// the partition-merge protocol.
type IslandsMergePhase = scenario.IslandsMerge

// RevivalWavePhase brings killed peers back; each rejoins through a live
// bootstrap.
type RevivalWavePhase = scenario.RevivalWave

// StoreRecordsPhase seeds DHT records through random live writers; the
// scenario's durability checkers judge them at every sample.
type StoreRecordsPhase = scenario.StoreRecords

// StorageWorkloadPhase drives a continuous put/get mix, optionally with
// concurrent membership churn.
type StorageWorkloadPhase = scenario.StorageWorkload

// ScenarioResult reports a scenario run: event counts, mid-run invariant
// samples, and the final invariant evaluation.
type ScenarioResult = scenario.Result

// InvariantViolation is one broken overlay invariant (ring closure,
// tessellation coverage, parent/child consistency, lookup-loop freedom).
type InvariantViolation = scenario.Violation

// ZoneFraction builds the ID-space region [lo, hi] from fractions in
// [0, 1], for ZoneFailurePhase.
func ZoneFraction(lo, hi float64) idspace.Region { return scenario.ZoneFraction(lo, hi) }

// RunScenario plays a scripted workload timeline against the network:
// live churn with dynamic joins, flash crowds, correlated zone failures,
// partitions, revival waves, storage seeding and put/get workloads.
// Runtime invariant checkers — including the storage durability checkers
// when the timeline wrote records — sample the overlay every two virtual
// seconds and once more at the end; the result carries every violation
// found. Peers joined by the scenario are full protocol nodes with their
// own DHT services from the moment they join.
func (nw *SimNetwork) RunScenario(phases ...ScenarioPhase) *ScenarioResult {
	res := scenario.Run(nw.cluster, nw.scenarioOptions(), phases...)
	for i := len(nw.services); i < len(nw.cluster.Nodes); i++ {
		nd := nw.cluster.Nodes[i]
		s := nw.storage.Service(nd.Addr())
		if s == nil {
			s = dht.Attach(nd)
			nw.storage.Bind(s)
		}
		nw.services = append(nw.services, s)
	}
	return res
}

// scenarioOptions is the standard checker + storage configuration.
func (nw *SimNetwork) scenarioOptions() scenario.Options {
	return scenario.Options{
		Checkers:    append(scenario.AllCheckers(), scenario.StorageCheckers(0.99)...),
		SampleEvery: 2 * time.Second,
		Storage:     nw.storage,
	}
}

// CheckInvariants evaluates every runtime invariant checker (storage
// durability included) against the overlay's current state and returns
// the violations (nil when healthy).
func (nw *SimNetwork) CheckInvariants() []InvariantViolation {
	return scenario.NewEngine(nw.cluster, nw.scenarioOptions()).CheckNow()
}

// UDPOptions configures a real TreeP node on a UDP socket.
type UDPOptions struct {
	// Bind is the listen address, e.g. "127.0.0.1:0".
	Bind string
	// ID is the node's coordinate; zero means hash the bound address.
	ID ID
	// Seed feeds the node's random stream (default: derived from address).
	Seed int64
}

// UDPNode is a TreeP peer on a real socket, with the full storage stack:
// the same DHT service (request plumbing included) that the simulator
// runs, over the binary codec, with its timers on the simulator's event
// queue run against the wall clock.
type UDPNode struct {
	tr  *udptransport.Transport
	dht *dht.Service
}

// StartUDPNode binds the socket and starts the node's maintenance.
func StartUDPNode(o UDPOptions) (*UDPNode, error) {
	if o.Bind == "" {
		o.Bind = "127.0.0.1:0"
	}
	cfg := core.Defaults()
	cfg.ID = o.ID
	tr, err := udptransport.Listen(cfg, o.Bind, o.Seed)
	if err != nil {
		return nil, err
	}
	if o.ID == 0 {
		// Re-create with the address-derived ID now that the port is known.
		tr.Close()
		cfg.ID = idspace.HashAddr(udptransport.UintToAddr(tr.OverlayAddr()).String())
		tr, err = udptransport.Listen(cfg, udptransport.UintToAddr(tr.OverlayAddr()).String(), o.Seed)
		if err != nil {
			return nil, err
		}
	}
	u := &UDPNode{tr: tr}
	if err := tr.Do(func(n *core.Node) { u.dht = dht.Attach(n) }); err != nil {
		tr.Close()
		return nil, err
	}
	if err := tr.Start(); err != nil {
		tr.Close()
		return nil, err
	}
	return u, nil
}

// Addr returns the node's packed overlay address (give it to peers as
// their bootstrap).
func (u *UDPNode) Addr() uint64 { return u.tr.OverlayAddr() }

// Join bootstraps through a peer's overlay address.
func (u *UDPNode) Join(bootstrap uint64) error { return u.tr.Join(bootstrap) }

// Lookup resolves target over the real network, blocking up to the node's
// lookup timeout.
func (u *UDPNode) Lookup(target ID, algo Algo) (LookupResult, error) {
	res, err := call(u, func(n *core.Node, done func(LookupResult, error)) {
		n.Lookup(target, algo, func(r LookupResult) { done(r, nil) })
	})
	if err == dht.ErrTimeout {
		return LookupResult{Status: core.LookupTimeout}, nil
	}
	return res, err
}

// ID returns the node's coordinate.
func (u *UDPNode) ID() ID {
	var id ID
	_ = u.tr.Do(func(n *core.Node) { id = n.ID() })
	return id
}

// Level returns the node's current hierarchy level.
func (u *UDPNode) Level() int {
	var lvl int
	_ = u.tr.Do(func(n *core.Node) { lvl = int(n.MaxLevel()) })
	return lvl
}

// PeerCount returns the size of the node's level-0 table.
func (u *UDPNode) PeerCount() int {
	var c int
	_ = u.tr.Do(func(n *core.Node) { c = n.Table().Level0.Len() })
	return c
}

// WireStats is the transport's cumulative datagram accounting: messages
// in and out, the syscalls they cost (the batch path amortises several
// datagrams per syscall), and the receive-side reject counters.
type WireStats = udptransport.Snapshot

// WireStats returns the node's wire counters. Safe from any goroutine;
// the counters are lock-free atomics, so reading them does not touch the
// node's event loop.
func (u *UDPNode) WireStats() WireStats { return u.tr.Stats() }

// Batched reports whether the kernel batch I/O path (recvmmsg/sendmmsg)
// is active, as opposed to the portable one-datagram-per-syscall
// fallback.
func (u *UDPNode) Batched() bool { return u.tr.Batched() }

// StoredRecords returns the number of DHT records this node holds.
func (u *UDPNode) StoredRecords() int {
	var c int
	_ = u.tr.Do(func(n *core.Node) { c = u.dht.Len() })
	return c
}

// udpOpTimeout generously bounds one blocking storage operation (its own
// lookup + request retries all happen inside it).
const udpOpTimeout = 15 * time.Second

// call is the blocking shape of every UDPNode operation: start issues it
// on the node's event loop with a completion callback, and the caller
// waits up to udpOpTimeout for the callback. An operation still open then
// reports dht.ErrTimeout; a closed node reports Do's error.
func call[T any](u *UDPNode, start func(n *core.Node, done func(T, error))) (T, error) {
	type out struct {
		v   T
		err error
	}
	ch := make(chan out, 1)
	var zero T
	if err := u.tr.Do(func(n *core.Node) {
		start(n, func(v T, e error) { ch <- out{owned(v), e} })
	}); err != nil {
		return zero, err
	}
	select {
	case o := <-ch:
		return o.v, o.err
	case <-time.After(udpOpTimeout):
		return zero, dht.ErrTimeout
	}
}

// Put stores a key/value pair through this node over the real network,
// blocking until the owner acknowledges (or the retries are exhausted).
func (u *UDPNode) Put(key, value []byte) error {
	_, err := call(u, func(_ *core.Node, done func(struct{}, error)) {
		u.dht.Put(key, value, func(e error) { done(struct{}{}, e) })
	})
	return err
}

// Get fetches a key over the real network.
func (u *UDPNode) Get(key []byte) ([]byte, error) {
	rec, err := u.GetRecord(key)
	return rec.Value, err
}

// GetRecord fetches a key with its version over the real network.
func (u *UDPNode) GetRecord(key []byte) (Record, error) {
	return call(u, func(_ *core.Node, done func(Record, error)) { u.dht.GetRecord(key, done) })
}

// PutIf stores key conditionally on base (compare-and-swap; see
// SimNetwork.PutIf) over the real network.
func (u *UDPNode) PutIf(key, value []byte, base uint64) (uint64, error) {
	return call(u, func(_ *core.Node, done func(uint64, error)) { u.dht.PutIf(key, value, base, done) })
}

// Close gracefully shuts the node down: it announces the departure to its
// peers (so the overlay repairs immediately instead of detecting a
// failure) and then closes the socket. Peers that miss the best-effort
// announcement fall back to the usual failure detection.
func (u *UDPNode) Close() {
	_ = u.tr.Do(func(n *core.Node) { n.Depart() })
	u.tr.Close()
}
