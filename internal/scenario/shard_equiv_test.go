package scenario

import (
	"slices"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/simrt"
)

// TestShardEquivalenceChurn is the end-to-end equivalence oracle for the
// sharded kernel: the full churn scenario — Poisson joins and fail-stop
// leaves driven by the scenario engine, with the invariant checkers
// sampling mid-run, exactly as CI runs them — must reach a bit-identical
// cluster digest at every shard count. The checkers run unmodified
// against the sharded engine; any divergence in delivery order, timer
// interleaving, or random-draw sequencing across shard placements shows
// up as a digest mismatch against the single-shard reference.
func TestShardEquivalenceChurn(t *testing.T) {
	seeds := []int64{2, 29, 101}
	n := 150
	if testing.Short() {
		seeds = seeds[:2]
		n = 64
	}
	timeline := []Phase{
		Settle{For: 4 * time.Second},
		Churn{For: 10 * time.Second, JoinRate: 2, LeaveRate: 2},
		Settle{For: 4 * time.Second},
	}
	for _, seed := range seeds {
		var want uint64
		var wantRes *Result
		for _, shards := range []int{1, 2, 4, 8} {
			c := simrt.New(simrt.Options{N: n, Seed: seed, Bulk: true, Shards: shards})
			c.StartAll()
			c.Run(4 * time.Second)
			eng := NewEngine(c, Options{
				Checkers:    AllCheckers(),
				SampleEvery: 2 * time.Second,
			})
			res := eng.Play(timeline...)
			got := c.StateDigest()
			c.Engine.Close()
			if shards == 1 {
				want, wantRes = got, res
				continue
			}
			if got != want {
				t.Errorf("seed %d: digest at %d shards = %#x, want %#x (1 shard)",
					seed, shards, got, want)
			}
			if res.Joins != wantRes.Joins || res.Leaves != wantRes.Leaves {
				t.Errorf("seed %d: %d shards churned %d joins/%d leaves, want %d/%d",
					seed, shards, res.Joins, res.Leaves, wantRes.Joins, wantRes.Leaves)
			}
			if len(res.Samples) != len(wantRes.Samples) {
				t.Errorf("seed %d: %d shards took %d samples, want %d",
					seed, shards, len(res.Samples), len(wantRes.Samples))
				continue
			}
			for i, s := range res.Samples {
				if w := wantRes.Samples[i]; s.Alive != w.Alive || len(s.Violations) != len(w.Violations) {
					t.Errorf("seed %d: %d shards sample %d = (alive %d, violations %d), want (%d, %d)",
						seed, shards, i, s.Alive, len(s.Violations), w.Alive, len(w.Violations))
				}
			}
		}
	}
}

// TestShardStorageEquivalence is the seed-sweep equivalence oracle for
// the read timeline treep.go ships: stored records, then a steady stream
// of DHT gets, with the child-balance checker sampling mid-run, must
// reach a bit-identical cluster digest, the same gets and the same
// samples at every shard count, across a wide seed sweep. (The
// load-spread checker reads a trace, which a sharded network refuses.)
// The DHT's read path rides
// the same virtual-time kernel as the rest of the overlay, so any hidden
// wall-clock or map-order dependence shows up here as a digest mismatch.
// Under -race (CI's race-sharded job selects it by name) it also drives
// the held forwards of many concurrent lookups across shard workers.
func TestShardStorageEquivalence(t *testing.T) {
	seeds := int64(16)
	shardCounts := []int{1, 2, 4}
	if testing.Short() {
		seeds = 4
		shardCounts = []int{1, 2}
	}
	timeline := []Phase{
		Settle{For: 4 * time.Second},
		StoreRecords{Count: 32},
		Settle{For: 2 * time.Second},
		StorageWorkload{For: 12 * time.Second, GetRate: 200},
	}
	for seed := int64(1); seed <= seeds; seed++ {
		var want uint64
		var wantRes *Result
		var wantGets uint64
		for _, shards := range shardCounts {
			c := simrt.New(simrt.Options{
				N: 300, Seed: seed, Bulk: true, Shards: shards,
			})
			st := attachedStorage(c)
			c.StartAll()
			eng := NewEngine(c, Options{
				Storage:     st,
				Checkers:    []Checker{ChildBalance(3, 2)},
				SampleEvery: 2 * time.Second,
			})
			res := eng.Play(timeline...)
			got := c.StateDigest()
			c.Engine.Close()
			if shards == shardCounts[0] {
				if st.Gets == 0 {
					t.Fatalf("seed %d: the timeline issued no gets", seed)
				}
				want, wantRes, wantGets = got, res, st.Gets
				continue
			}
			if got != want {
				t.Errorf("seed %d: digest at %d shards = %#x, want %#x (%d shards)",
					seed, shards, got, want, shardCounts[0])
			}
			if st.Gets != wantGets {
				t.Errorf("seed %d: %d shards read %d gets, want %d",
					seed, shards, st.Gets, wantGets)
			}
			if len(res.Samples) != len(wantRes.Samples) {
				t.Errorf("seed %d: %d shards took %d samples, want %d",
					seed, shards, len(res.Samples), len(wantRes.Samples))
				continue
			}
			for i, s := range res.Samples {
				if w := wantRes.Samples[i]; s.Alive != w.Alive || len(s.Violations) != len(w.Violations) {
					t.Errorf("seed %d: %d shards sample %d = (alive %d, violations %d), want (%d, %d)",
						seed, shards, i, s.Alive, len(s.Violations), w.Alive, len(w.Violations))
				}
			}
		}
	}
}

// TestShardStorageWorkloadRaceFree drives the continuous put/get mix on the
// sharded engine, where Put and Get completions run on the issuing nodes'
// shard workers: two of them may land in one epoch, and both write the
// storage context's counters and ledger. Under -race (CI's race-sharded
// job selects this test by name) it fails if a completion touches them
// without Storage.mu; in any mode the counters and the ledger must come
// out the same at every shard count.
func TestShardStorageWorkloadRaceFree(t *testing.T) {
	type outcome struct {
		puts, putFails, gets, getMiss uint64
		ledger                        []idspace.ID
	}
	var want outcome
	for _, shards := range []int{1, 2, 4} {
		c := simrt.New(simrt.Options{N: 200, Seed: 5, Bulk: true, Shards: shards})
		st := attachedStorage(c)
		c.StartAll()
		NewEngine(c, Options{Storage: st}).Play(
			Settle{For: 4 * time.Second},
			StorageWorkload{For: 10 * time.Second, PutRate: 40, GetRate: 80},
			Settle{For: 4 * time.Second},
		)
		c.Engine.Close()
		got := outcome{st.Puts, st.PutFails, st.Gets, st.GetMiss, st.ledger.Keys()}
		if got.puts == 0 || got.gets == 0 || len(got.ledger) == 0 {
			t.Fatalf("%d shards: the workload did nothing: %+v", shards, got)
		}
		if shards == 1 {
			want = got
			continue
		}
		if got.puts != want.puts || got.putFails != want.putFails || got.gets != want.gets || got.getMiss != want.getMiss {
			t.Errorf("%d shards counted puts %d/%d failed, gets %d/%d missed; 1 shard %d/%d, %d/%d", shards,
				got.puts, got.putFails, got.gets, got.getMiss, want.puts, want.putFails, want.gets, want.getMiss)
		}
		if !slices.Equal(got.ledger, want.ledger) {
			t.Errorf("%d shards ledgered %d keys, 1 shard %d, or not the same ones", shards, len(got.ledger), len(want.ledger))
		}
	}
}
