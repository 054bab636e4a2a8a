package scenario

import (
	"strings"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/simrt"
)

// attachedStorage is a storage context with a DHT service on every
// current node of c.
func attachedStorage(c *simrt.Cluster) *Storage {
	st := NewStorage()
	for _, nd := range c.Nodes {
		st.Attach(nd)
	}
	return st
}

// storageOpts is checkedOpts plus a bound storage context and the
// durability checkers.
func storageOpts(c *simrt.Cluster, minReadable float64, sample time.Duration) Options {
	st := attachedStorage(c)
	o := checkedOpts(sample)
	o.Storage = st
	o.Checkers = append(o.Checkers, StorageCheckers(minReadable)...)
	return o
}

// storageViolations filters a result's final violations to the storage
// checkers.
func storageViolations(res *Result) []Violation {
	var out []Violation
	for _, v := range res.Final {
		if strings.HasPrefix(v.Checker, "storage-") {
			out = append(out, v)
		}
	}
	return out
}

func TestStoreRecordsSeedsLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := newCluster(t, 200, 11)
	opts := storageOpts(c, 0.99, 0)
	res := Run(c, opts,
		Settle{For: 8 * time.Second},
		StoreRecords{Count: 60},
		Settle{For: 8 * time.Second})
	if opts.Storage.Records() < 55 {
		t.Fatalf("only %d/60 records ledgered (put fails: %d)",
			opts.Storage.Records(), opts.Storage.PutFails)
	}
	if sv := storageViolations(res); len(sv) > 0 {
		t.Fatalf("storage violations in steady state: %v", sv)
	}
	assertClean(t, res)
}

func TestStorageWorkloadUnderChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := newCluster(t, 300, 12)
	opts := storageOpts(c, 0.99, 5*time.Second)
	res := Run(c, opts,
		Settle{For: 8 * time.Second},
		StoreRecords{Count: 80},
		StorageWorkload{For: 20 * time.Second, PutRate: 3, GetRate: 6, JoinRate: 1, LeaveRate: 1},
		Settle{For: 12 * time.Second})
	st := opts.Storage
	if st.Puts == 0 || st.Gets == 0 {
		t.Fatalf("workload idle: %d puts, %d gets", st.Puts, st.Gets)
	}
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("no concurrent churn: %d joins, %d leaves", res.Joins, res.Leaves)
	}
	// Reads against a live replicated store should essentially never miss.
	if st.GetMiss*10 > st.Gets {
		t.Fatalf("%d/%d workload reads missed", st.GetMiss, st.Gets)
	}
	if sv := storageViolations(res); len(sv) > 0 {
		t.Fatalf("storage violations: %v", sv)
	}
}

// TestDurabilityUnderChurn2000 is the acceptance scenario: N=2000 with
// replication factor 3, a churn phase that replaces 30% of the
// population, and the engine's own durability checkers requiring ≥ 99% of
// pre-churn records readable afterwards.
func TestDurabilityUnderChurn2000(t *testing.T) {
	if testing.Short() {
		t.Skip("N=2000 durability scenario; skipped with -short")
	}
	c := newCluster(t, 2000, 13)
	opts := storageOpts(c, 0.99, 0)
	// 30% of 2000 = 600 replacements: 60 virtual seconds at 10 leaves and
	// 10 joins per second.
	res := Run(c, opts,
		Settle{For: 8 * time.Second},
		StoreRecords{Count: 400},
		Churn{For: 60 * time.Second, JoinRate: 10, LeaveRate: 10},
		Settle{For: 14 * time.Second})
	if opts.Storage.Records() < 380 {
		t.Fatalf("seeding failed: %d/400 records", opts.Storage.Records())
	}
	if res.Leaves < 500 {
		t.Fatalf("churn too weak to exercise durability: %d leaves", res.Leaves)
	}
	// The acceptance bar for heavy replacement churn is the readable
	// fraction (≥ 99%); total loss of an individual record is possible
	// when an owner and both replicas die inside one maintenance window,
	// and is judged by the zonefail test's zero-loss bar instead.
	for _, v := range res.Final {
		if v.Checker == "storage-durability" {
			t.Fatalf("durability below threshold after 30%% replacement churn: %s", v.Detail)
		}
	}
}

// TestDurabilityZoneFailSingleNode checks the zero-loss half of the
// acceptance criterion: killing any single node (a one-node zone failure)
// must lose no record at all with replication factor 3.
func TestDurabilityZoneFailSingleNode(t *testing.T) {
	if testing.Short() {
		t.Skip("N=2000 durability scenario; skipped with -short")
	}
	c := newCluster(t, 2000, 14)
	opts := storageOpts(c, 1.0, 0)
	// A zone that contains exactly one live node: the one with the median
	// ID (any would do; the median avoids space-edge special cases).
	ids := make([]idspace.ID, 0, len(c.Nodes))
	for _, n := range c.Nodes {
		ids = append(ids, n.ID())
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j-1] > ids[j]; j-- {
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
	victim := ids[len(ids)/2]
	res := Run(c, opts,
		Settle{For: 8 * time.Second},
		StoreRecords{Count: 300},
		ZoneFailure{Zone: idspace.Region{Lo: victim, Hi: victim}, Settle: 12 * time.Second})
	if res.ZoneKilled != 1 {
		t.Fatalf("zone killed %d nodes, want exactly 1", res.ZoneKilled)
	}
	for _, v := range res.Final {
		if v.Checker == "storage-no-loss" {
			t.Fatalf("record lost to a single-node failure: %s", v.Detail)
		}
	}
	if sv := storageViolations(res); len(sv) > 0 {
		t.Fatalf("storage violations after single-node zonefail: %v", sv)
	}
}

func TestStorageScenarioDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	run := func() (int, uint64, uint64) {
		c := newCluster(t, 150, 15)
		opts := storageOpts(c, 0.99, 0)
		Run(c, opts,
			Settle{For: 6 * time.Second},
			StoreRecords{Count: 40},
			StorageWorkload{For: 10 * time.Second, PutRate: 2, GetRate: 4, JoinRate: 1, LeaveRate: 1},
			Settle{For: 8 * time.Second})
		return opts.Storage.Records(), opts.Storage.Puts, opts.Storage.Gets
	}
	r1, p1, g1 := run()
	r2, p2, g2 := run()
	if r1 != r2 || p1 != p2 || g1 != g2 {
		t.Fatalf("storage scenario not deterministic: (%d,%d,%d) vs (%d,%d,%d)",
			r1, p1, g1, r2, p2, g2)
	}
}

// TestSmallWorldRevivalAndIslands is the short-mode pass over the phases
// and oracles the N=200–2000 suites otherwise keep to themselves: a zone
// dies and revives (Cluster.DeadNodes, Revive), the overlay is cut into two
// interleaved islands and re-merged through one bridge (PartitionBy), and
// the durability checkers mirror the read path (Service.ReplicaTargets,
// LocalHashed) on every record written beforehand.
func TestSmallWorldRevivalAndIslands(t *testing.T) {
	c := newCluster(t, 64, 31)
	opts := storageOpts(c, 0.99, time.Second) // sampled mid-repair, when owners miss
	res := Run(c, opts,
		Settle{For: 6 * time.Second},
		StoreRecords{Count: 24},
		ZoneFailure{Zone: ZoneFraction(0.40, 0.55), Settle: 8 * time.Second},
		RevivalWave{Over: 2 * time.Second},
		Settle{For: 8 * time.Second},
		IslandsMerge{Hold: 10 * time.Second, Merge: 30 * time.Second})
	if opts.Storage.Records() != 24 {
		t.Fatalf("%d of 24 records ledgered (put fails: %d)", opts.Storage.Records(), opts.Storage.PutFails)
	}
	if res.ZoneKilled == 0 || res.Revived != res.ZoneKilled || len(c.AliveNodes()) != 64 {
		t.Fatalf("killed %d, revived %d, %d alive: want every victim back", res.ZoneKilled, res.Revived, len(c.AliveNodes()))
	}
	assertClean(t, res)
}
