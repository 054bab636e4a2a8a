package dht

import (
	"errors"
	"fmt"
	"testing"
	"time"
	"unsafe"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/simrt"
)

// dhtCluster attaches a DHT service to every node of a bulk-built cluster.
func dhtCluster(t *testing.T, n int, seed int64, netOpts ...netsim.Option) (*simrt.Cluster, map[uint64]*Service) {
	t.Helper()
	c := simrt.New(simrt.Options{N: n, Seed: seed, Bulk: true, NetOpts: netOpts})
	services := make(map[uint64]*Service, n)
	for _, nd := range c.Nodes {
		services[nd.Addr()] = Attach(nd)
	}
	c.StartAll()
	c.Run(6 * time.Second)
	return c, services
}

// keyOwnedBy searches for a raw key whose hash is nearest to want's ID
// among all cluster nodes (deterministic, for tests that need to steer
// ownership).
func keyOwnedBy(t *testing.T, c *simrt.Cluster, want *core.Node) []byte {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := []byte(fmt.Sprintf("steered-%d", i))
		h := idspace.HashKey(key)
		best := c.Nodes[0]
		bestD := idspace.Dist(best.ID(), h)
		for _, nd := range c.Nodes[1:] {
			if d := idspace.Dist(nd.ID(), h); d < bestD {
				best, bestD = nd, d
			}
		}
		if best == want {
			return key
		}
	}
	t.Fatal("no key found owned by target node")
	return nil
}

func TestPutGetRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c, svcs := dhtCluster(t, 120, 1)
	origin := svcs[c.Nodes[3].Addr()]
	reader := svcs[c.Nodes[77].Addr()]

	var putErr error
	done := false
	origin.Put([]byte("alpha"), []byte("value-1"), func(err error) { putErr = err; done = true })
	c.Run(8 * time.Second)
	if !done || putErr != nil {
		t.Fatalf("put: done=%v err=%v", done, putErr)
	}

	var got []byte
	var getErr error
	done = false
	reader.Get([]byte("alpha"), func(v []byte, err error) { got, getErr, done = v, err, true })
	c.Run(8 * time.Second)
	if !done || getErr != nil || string(got) != "value-1" {
		t.Fatalf("get: done=%v err=%v got=%q", done, getErr, got)
	}
}

func TestGetMissingKey(t *testing.T) {
	c, svcs := dhtCluster(t, 80, 2)
	var getErr error
	done := false
	svcs[c.Nodes[0].Addr()].Get([]byte("never-stored"), func(v []byte, err error) { getErr = err; done = true })
	c.Run(8 * time.Second)
	if !done || !errors.Is(getErr, ErrNotFound) {
		t.Fatalf("done=%v err=%v", done, getErr)
	}
}

func TestVersionsIncreaseAcrossPuts(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c, svcs := dhtCluster(t, 60, 3)
	w := svcs[c.Nodes[5].Addr()]
	key := []byte("counter")

	for i, want := range []string{"one", "two", "three"} {
		done := false
		w.Put(key, []byte(want), func(err error) {
			if err != nil {
				t.Errorf("put %d: %v", i, err)
			}
			done = true
		})
		c.Run(6 * time.Second)
		if !done {
			t.Fatalf("put %d never resolved", i)
		}
	}
	var rec Record
	done := false
	svcs[c.Nodes[40].Addr()].GetRecord(key, func(r Record, err error) {
		if err != nil {
			t.Errorf("get: %v", err)
		}
		rec, done = r, true
	})
	c.Run(6 * time.Second)
	if !done || string(rec.Value) != "three" {
		t.Fatalf("read %q (done=%v)", rec.Value, done)
	}
	if rec.Version < 3 {
		t.Fatalf("version %d after 3 puts", rec.Version)
	}
}

func TestPutIfConflict(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c, svcs := dhtCluster(t, 60, 4)
	w := svcs[c.Nodes[2].Addr()]
	key := []byte("cas-key")

	var v1 uint64
	done := false
	w.PutIf(key, []byte("first"), AnyVersion, func(v uint64, err error) {
		if err != nil {
			t.Errorf("initial cas: %v", err)
		}
		v1, done = v, true
	})
	c.Run(6 * time.Second)
	if !done || v1 == 0 {
		t.Fatalf("initial cas: done=%v v=%d", done, v1)
	}

	// A writer with a stale base must get ErrConflict, not silently win.
	done = false
	var conflictErr error
	w.PutIf(key, []byte("stale"), AnyVersion, func(_ uint64, err error) { conflictErr = err; done = true })
	c.Run(6 * time.Second)
	if !done || !errors.Is(conflictErr, ErrConflict) {
		t.Fatalf("stale cas: done=%v err=%v", done, conflictErr)
	}

	// The correct base succeeds and bumps the version.
	done = false
	var v2 uint64
	w.PutIf(key, []byte("second"), v1, func(v uint64, err error) {
		if err != nil {
			t.Errorf("cas with base: %v", err)
		}
		v2, done = v, true
	})
	c.Run(6 * time.Second)
	if !done || v2 <= v1 {
		t.Fatalf("cas with base: done=%v v=%d (was %d)", done, v2, v1)
	}

	var got []byte
	done = false
	svcs[c.Nodes[30].Addr()].Get(key, func(v []byte, err error) { got, done = v, true })
	c.Run(6 * time.Second)
	if !done || string(got) != "second" {
		t.Fatalf("read %q", got)
	}
}

func TestManyKeysSpreadAcrossOwners(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c, svcs := dhtCluster(t, 150, 5)
	writer := svcs[c.Nodes[0].Addr()]
	const keys = 60
	oks := 0
	for i := 0; i < keys; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		writer.Put(key, []byte(fmt.Sprintf("val-%d", i)), func(err error) {
			if err == nil {
				oks++
			}
		})
	}
	c.Run(12 * time.Second)
	if oks < keys*9/10 {
		t.Fatalf("puts ok %d/%d", oks, keys)
	}
	// Storage must be spread over multiple owners, not piled on one node.
	owners := 0
	maxPerNode := 0
	for _, s := range svcs {
		if s.Len() > 0 {
			owners++
		}
		if s.Len() > maxPerNode {
			maxPerNode = s.Len()
		}
	}
	if owners < 10 {
		t.Fatalf("records concentrated on %d owners", owners)
	}
	if maxPerNode > keys {
		t.Fatalf("one node holds %d records", maxPerNode)
	}
}

func TestReplicationSurvivesOwnerFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c, svcs := dhtCluster(t, 120, 6)
	owner := c.Nodes[33]
	key := keyOwnedBy(t, c, owner)

	writer := svcs[c.Nodes[5].Addr()]
	done := false
	writer.Put(key, []byte("data"), func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		done = true
	})
	c.Run(8 * time.Second)
	if !done {
		t.Fatal("put never resolved")
	}
	if _, ok := svcs[owner.Addr()].LocalHashed(idspace.HashKey(key)); !ok {
		t.Fatal("owner does not hold the key it owns")
	}

	// Kill the owner: the record must stay readable — the new owner heals
	// from a replica (read-repair) or maintenance has re-homed it already.
	c.Kill(owner)
	c.Run(10 * time.Second)

	var got []byte
	var err error
	done = false
	svcs[c.Nodes[50].Addr()].Get(key, func(v []byte, e error) { got, err, done = v, e, true })
	c.Run(10 * time.Second)
	if !done {
		t.Fatal("get never resolved")
	}
	if err != nil || string(got) != "data" {
		t.Fatalf("record lost after owner failure: err=%v got=%q", err, got)
	}
}

func TestHandoffToRejoiningCloserNode(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c, svcs := dhtCluster(t, 100, 7)
	owner := c.Nodes[42]
	key := keyOwnedBy(t, c, owner)

	// Write the record while the rightful owner is dead: someone else
	// accepts it.
	c.Kill(owner)
	c.Run(8 * time.Second)
	done := false
	svcs[c.Nodes[3].Addr()].Put(key, []byte("migrant"), func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		done = true
	})
	c.Run(8 * time.Second)
	if !done {
		t.Fatal("put never resolved")
	}
	if _, ok := svcs[owner.Addr()].LocalHashed(idspace.HashKey(key)); ok {
		t.Fatal("dead owner holds the record")
	}

	// The closer node rejoins: ownership handoff must migrate the record
	// to it without any new write.
	c.Revive(owner)
	alive := c.AliveNodes()
	owner.Join(alive[0].Addr())
	c.Run(20 * time.Second)

	if rec, ok := svcs[owner.Addr()].LocalHashed(idspace.HashKey(key)); !ok || string(rec.Value) != "migrant" {
		t.Fatalf("record did not migrate to the rejoined closer node (ok=%v)", ok)
	}
}

func TestReadRepairWithoutMaintenance(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := simrt.New(simrt.Options{N: 120, Seed: 8, Bulk: true})
	svcs := make(map[uint64]*Service, 120)
	for _, nd := range c.Nodes {
		s := Attach(nd)
		// Disarm periodic maintenance so only the read path can heal.
		s.maintTimer.Cancel()
		svcs[nd.Addr()] = s
	}
	c.StartAll()
	c.Run(6 * time.Second)

	owner := c.Nodes[17]
	key := keyOwnedBy(t, c, owner)
	done := false
	svcs[c.Nodes[2].Addr()].Put(key, []byte("fragile"), func(err error) {
		if err != nil {
			t.Errorf("put: %v", err)
		}
		done = true
	})
	c.Run(8 * time.Second)
	if !done {
		t.Fatal("put never resolved")
	}

	c.Kill(owner)
	c.Run(8 * time.Second) // let the overlay repair the ring, not the data

	var got []byte
	var err error
	done = false
	svcs[c.Nodes[90].Addr()].Get(key, func(v []byte, e error) { got, err, done = v, e, true })
	c.Run(10 * time.Second)
	if !done {
		t.Fatal("get never resolved")
	}
	if err != nil || string(got) != "fragile" {
		t.Fatalf("read-repair failed: err=%v got=%q", err, got)
	}
}

func TestPutCallbackOnLookupFailure(t *testing.T) {
	// A node with an empty table cannot resolve owners: the put must fail
	// (never claim local ownership of a key the overlay would resolve
	// elsewhere) and the callback must fire exactly once.
	c := simrt.New(simrt.Options{N: 2, Seed: 9, Bulk: false})
	s := Attach(c.Nodes[0])
	c.Nodes[0].Start()
	var putErr error
	done := false
	s.Put([]byte("k"), []byte("v"), func(err error) { putErr = err; done = true })
	c.Run(8 * time.Second)
	if !done {
		t.Fatal("callback never fired")
	}
	if putErr == nil {
		t.Fatal("expected failure on isolated node")
	}
}

// TestStoreRetryReplaysAck covers the lost-ack retry path: the service
// plane re-sends a store with the same request id, and the owner must
// replay the recorded outcome instead of re-applying — a committed
// conditional store retried against its own bumped version would
// otherwise answer a spurious conflict.
func TestStoreRetryReplaysAck(t *testing.T) {
	c := simrt.New(simrt.Options{N: 2, Seed: 11, Bulk: false})
	s := Attach(c.Nodes[0])
	k := idspace.ID(99)

	var acks []*proto.DHTStoreAck
	store := func() {
		s.handleStore(42, &proto.DHTStore{From: proto.NodeRef{Addr: 42}, ReqID: 7,
			Key: k, Value: []byte("v"), Cond: true, Base: AnyVersion},
			func(resp proto.SvcMessage) { acks = append(acks, resp.(*proto.DHTStoreAck)) })
	}
	store()
	store() // the retry: same requester, same request id
	if len(acks) != 2 {
		t.Fatalf("%d acks", len(acks))
	}
	if acks[0].Status != proto.StoreOK || acks[0].Version != 1 {
		t.Fatalf("first ack %+v", acks[0])
	}
	if acks[1].Status != proto.StoreOK || acks[1].Version != 1 {
		t.Fatalf("retry must replay the recorded ack, got %+v", acks[1])
	}
	if rec, ok := s.LocalHashed(k); !ok || rec.Version != 1 {
		t.Fatalf("store re-applied: %+v", rec)
	}

	// A different id from the same requester is a new operation.
	s.handleStore(42, &proto.DHTStore{From: proto.NodeRef{Addr: 42}, ReqID: 8,
		Key: k, Value: []byte("w"), Cond: true, Base: AnyVersion},
		func(resp proto.SvcMessage) { acks = append(acks, resp.(*proto.DHTStoreAck)) })
	if acks[2].Status != proto.StoreConflict {
		t.Fatalf("fresh conditional store with stale base must conflict, got %+v", acks[2])
	}
}

// TestStoreMemoRingGrowsThenWraps: the replay window is the last
// storeMemoSize outcomes whether the ring is still growing or full — a
// retry inside the window replays, the one that fell out re-applies — and
// a service that served a few stores holds a few slots, not all of them.
func TestStoreMemoRingGrowsThenWraps(t *testing.T) {
	c := simrt.New(simrt.Options{N: 2, Seed: 11, Bulk: false})
	s := Attach(c.Nodes[0])
	store := func(reqID uint64) *proto.DHTStoreAck {
		var ack *proto.DHTStoreAck
		s.handleStore(42, &proto.DHTStore{From: proto.NodeRef{Addr: 42}, ReqID: reqID,
			Key: idspace.ID(reqID), Value: []byte("v")},
			func(resp proto.SvcMessage) { ack = resp.(*proto.DHTStoreAck) })
		return ack
	}
	for id := uint64(1); id <= 6; id++ {
		store(id)
	}
	if len(s.memos) != 6 || cap(s.memos) > 8 {
		t.Fatalf("after 6 stores the ring holds %d slots (cap %d), want 6 (cap ≤ 8)", len(s.memos), cap(s.memos))
	}
	for id := uint64(7); id <= storeMemoSize+1; id++ {
		store(id)
	}
	if len(s.memos) != storeMemoSize {
		t.Fatalf("ring grew to %d slots, bound is %d", len(s.memos), storeMemoSize)
	}
	// Request 1 was overwritten by request storeMemoSize+1: it re-applies
	// (version 2). Request 2 is the oldest still remembered: it replays.
	if ack := store(1); ack.Version != 2 {
		t.Fatalf("a store that left the window must re-apply, got version %d", ack.Version)
	}
	if ack := store(3); ack.Version != 1 {
		t.Fatalf("a store inside the window must replay version 1, got %d", ack.Version)
	}
}

// TestServiceFitsItsSizeClass: with its pending-call table held by value a
// Service is 272 bytes, in the 288-byte size class (DESIGN.md §16).
func TestServiceFitsItsSizeClass(t *testing.T) {
	if sz := unsafe.Sizeof(Service{}); sz > 288 {
		t.Fatalf("dht.Service is %d bytes: past the 288-byte size class", sz)
	}
}

func TestMergeOrdering(t *testing.T) {
	c := simrt.New(simrt.Options{N: 2, Seed: 10, Bulk: false})
	s := Attach(c.Nodes[0])
	k := idspace.ID(42)

	if !s.merge(k, []byte("a"), 1, 10) {
		t.Fatal("fresh record rejected")
	}
	if s.merge(k, []byte("b"), 1, 9) {
		t.Fatal("same version, lower origin must lose")
	}
	if !s.merge(k, []byte("c"), 1, 11) {
		t.Fatal("same version, higher origin must win")
	}
	if s.merge(k, []byte("d"), 1, 11) {
		t.Fatal("identical (version, origin) must be a no-op")
	}
	if !s.merge(k, []byte("e"), 2, 1) {
		t.Fatal("higher version must win regardless of origin")
	}
	if s.merge(k, []byte("f"), 1, 99) {
		t.Fatal("lower version must lose")
	}
	rec, ok := s.LocalHashed(k)
	if !ok || string(rec.Value) != "e" || rec.Version != 2 {
		t.Fatalf("final record %+v ok=%v", rec, ok)
	}
	if s.Len() != 1 {
		t.Fatalf("Len=%d", s.Len())
	}
	s.drop(k)
	if s.Len() != 0 {
		t.Fatalf("Len after drop=%d", s.Len())
	}
}
