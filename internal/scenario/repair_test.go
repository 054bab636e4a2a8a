package scenario

import (
	"fmt"
	"testing"
	"time"
)

// TestChurnRingRepairRegression reproduces the ring-repair hole: under
// sustained churn (N=300, 4 joins + 4 leaves per second for 30s) the
// passive repair machinery used to leave two ID-adjacent survivors
// mutually unaware at seeds 6, 8, 9 and 14 of this sweep — and, with
// early revisions of the active repair, a node whose anchors all died
// could go permanently dark (seed 7). The self-healing probes, the
// farewell greeting and the recent-peers rejoin fallback must close
// every gap at every seed; ring closure is checked with the persistence
// filter so only gaps that survive the grace window fail the test.
func TestChurnRingRepairRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("16 N=300 churn simulations; skipped with -short")
	}
	for seed := int64(1); seed <= 16; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			c := newCluster(t, 300, seed)
			res := Run(c, Options{
				Checkers:    []Checker{RingClosure(), RingWalk()},
				FinalGrace:  3 * time.Second,
				FinalChecks: 4,
			},
				Settle{For: 8 * time.Second},
				Churn{For: 30 * time.Second, JoinRate: 4, LeaveRate: 4},
				Settle{For: 14 * time.Second})
			assertClean(t, res)
		})
	}
}

// TestIslandsMergeBridge drives the full partition-merge protocol: the
// overlay splits into two address-parity islands (each island's ring
// interleaved with the other across the whole ID space), converges
// separately past the entry TTL, then re-merges through exactly one
// bridge join. The zip cascade must rebuild a single closed ring (ring
// closure AND the successor walk across the whole live population), the
// hierarchy must re-tessellate, and every DHT record stored before the
// partition must be readable afterwards.
func TestIslandsMergeBridge(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := newCluster(t, 200, 21)
	opts := storageOpts(c, 0.99, 0)
	res := Run(c, opts,
		Settle{For: 8 * time.Second},
		StoreRecords{Count: 60},
		Settle{For: 4 * time.Second},
		IslandsMerge{Hold: 15 * time.Second, Merge: 40 * time.Second})
	if opts.Storage.Records() < 55 {
		t.Fatalf("only %d/60 records ledgered before the partition (put fails: %d)",
			opts.Storage.Records(), opts.Storage.PutFails)
	}
	assertClean(t, res)
}
