package flood_test

// Lookup correctness of the flooding baseline under the scenario engine's
// dynamic phases, driven through the comparative overlay adapter. The
// in-package tests cover a static graph; these cover live membership
// change — new nodes dialling into the graph mid-run while others
// fail-stop — and the neighbour eviction/re-wiring tick.

import (
	"math/rand"
	"testing"
	"time"

	"treep/internal/overlay"
	"treep/internal/scenario"
)

// measure issues lookups between random live pairs and returns
// (found, issued).
func measure(ov overlay.Overlay, seed int64, issued int) (int, int) {
	ids := ov.AliveIDs()
	rng := rand.New(rand.NewSource(seed))
	found := 0
	for i := 0; i < issued; i++ {
		origin := rng.Intn(len(ids))
		target := ids[rng.Intn(len(ids))]
		ov.Lookup(origin, target, func(r overlay.Outcome) {
			if r.Found {
				found++
			}
		})
	}
	ov.Run(ov.LookupWindow())
	return found, issued
}

// TestFloodLookupUnderChurn: joined nodes become reachable flood targets
// and the graph keeps finding the surviving population.
func TestFloodLookupUnderChurn(t *testing.T) {
	ov := overlay.NewFlood(150, 1)
	ov.Run(4 * time.Second)

	res, err := overlay.Play(ov, rand.New(rand.NewSource(42)),
		scenario.Churn{For: 15 * time.Second, JoinRate: 2, LeaveRate: 2},
		scenario.Settle{For: 6 * time.Second},
	)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if res.Joins == 0 || res.Leaves == 0 {
		t.Fatalf("churn injected %d joins, %d leaves; want both > 0", res.Joins, res.Leaves)
	}
	ov.MaintenanceTick()

	found, issued := measure(ov, 7, 80)
	if found < issued*9/10 {
		t.Errorf("post-churn: %d/%d lookups resolved; want >= 90%%", found, issued)
	}
	if got := ov.AliveCount(); got != 150+res.Joins-res.Leaves {
		t.Errorf("AliveCount = %d, want %d", got, 150+res.Joins-res.Leaves)
	}
}

// TestFloodRewireAfterZoneFailure: a correlated kill thins the graph;
// the prune/re-wire tick must keep the survivors connected enough for
// floods to reach their targets.
func TestFloodRewireAfterZoneFailure(t *testing.T) {
	ov := overlay.NewFlood(150, 3)
	ov.Run(4 * time.Second)

	res, err := overlay.Play(ov, rand.New(rand.NewSource(4)),
		scenario.ZoneFailure{Zone: scenario.ZoneFraction(0.35, 0.60), Settle: 4 * time.Second},
	)
	if err != nil {
		t.Fatalf("Play: %v", err)
	}
	if res.ZoneKilled == 0 {
		t.Fatal("zone failure killed nobody")
	}
	ov.MaintenanceTick()

	found, issued := measure(ov, 11, 80)
	if found < issued*9/10 {
		t.Errorf("post-zone-failure: %d/%d lookups resolved; want >= 90%%", found, issued)
	}
}
