package overlay

import (
	"math/rand"
	"testing"
	"time"

	"treep/internal/scenario"
)

// backends builds one small instance of every adapter.
func backends(t *testing.T, n int, seed int64) []Overlay {
	t.Helper()
	return []Overlay{
		NewTreeP(n, seed),
		NewChord(n, seed),
		NewFlood(n, seed),
	}
}

// TestConformanceSteadyState: every backend resolves lookups between live
// nodes in a quiet network.
func TestConformanceSteadyState(t *testing.T) {
	for _, ov := range backends(t, 100, 1) {
		ov.Run(8 * time.Second)
		if got := ov.AliveCount(); got != 100 {
			t.Errorf("%s: AliveCount = %d, want 100", ov.Name(), got)
		}
		ids := ov.AliveIDs()
		if len(ids) != 100 {
			t.Fatalf("%s: AliveIDs len = %d, want 100", ov.Name(), len(ids))
		}
		rng := rand.New(rand.NewSource(7))
		found, issued := 0, 40
		for i := 0; i < issued; i++ {
			origin := rng.Intn(len(ids))
			target := ids[rng.Intn(len(ids))]
			ov.Lookup(origin, target, func(r Outcome) {
				if r.Found {
					found++
				}
			})
		}
		ov.Run(ov.LookupWindow())
		if found < issued*9/10 {
			t.Errorf("%s: steady state resolved %d/%d lookups", ov.Name(), found, issued)
		}
		if ov.StateSize() <= 0 {
			t.Errorf("%s: StateSize = %d, want > 0", ov.Name(), ov.StateSize())
		}
	}
}

// TestPlayChurnTimeline: the interpreter injects the same churn schedule
// into every backend (identically seeded RNGs draw identical event times)
// and each backend keeps resolving lookups afterwards.
func TestPlayChurnTimeline(t *testing.T) {
	script := []scenario.Phase{
		scenario.Churn{For: 8 * time.Second, JoinRate: 2, LeaveRate: 2},
		scenario.Settle{For: 8 * time.Second},
	}
	var events []PlayResult
	for _, ov := range backends(t, 100, 3) {
		ov.Run(4 * time.Second)
		rng := rand.New(rand.NewSource(99))
		res, err := Play(ov, rng, script...)
		if err != nil {
			t.Fatalf("%s: Play: %v", ov.Name(), err)
		}
		if res.Joins == 0 && res.Leaves == 0 {
			t.Errorf("%s: churn injected no events", ov.Name())
		}
		events = append(events, res)
		ov.MaintenanceTick()

		ids := ov.AliveIDs()
		rng2 := rand.New(rand.NewSource(5))
		found, issued := 0, 40
		for i := 0; i < issued; i++ {
			origin := rng2.Intn(len(ids))
			target := ids[rng2.Intn(len(ids))]
			ov.Lookup(origin, target, func(r Outcome) {
				if r.Found {
					found++
				}
			})
		}
		ov.Run(ov.LookupWindow())
		if found < issued*7/10 {
			t.Errorf("%s: post-churn resolved only %d/%d lookups", ov.Name(), found, issued)
		}
	}
	// The seed-replicated timeline must inject the same event counts into
	// every backend.
	for i := 1; i < len(events); i++ {
		if events[i].Joins != events[0].Joins || events[i].Leaves != events[0].Leaves {
			t.Errorf("backend %d saw %+v events, backend 0 saw %+v — timelines diverged",
				i, events[i], events[0])
		}
	}
}

// TestPlayZoneFailure: a contiguous region dies in every backend, the
// dead stay dead, and the survivors keep resolving each other.
func TestPlayZoneFailure(t *testing.T) {
	script := []scenario.Phase{
		scenario.ZoneFailure{Zone: scenario.ZoneFraction(0.40, 0.55), Settle: 8 * time.Second},
	}
	for _, ov := range backends(t, 100, 5) {
		ov.Run(4 * time.Second)
		res, err := Play(ov, rand.New(rand.NewSource(11)), script...)
		if err != nil {
			t.Fatalf("%s: Play: %v", ov.Name(), err)
		}
		if res.ZoneKilled == 0 {
			t.Errorf("%s: zone failure killed nobody", ov.Name())
		}
		if got := ov.AliveCount(); got != 100-res.ZoneKilled {
			t.Errorf("%s: AliveCount = %d, want %d", ov.Name(), got, 100-res.ZoneKilled)
		}
		ov.MaintenanceTick()
		ids := ov.AliveIDs()
		rng := rand.New(rand.NewSource(13))
		found, issued := 0, 40
		for i := 0; i < issued; i++ {
			origin := rng.Intn(len(ids))
			target := ids[rng.Intn(len(ids))]
			ov.Lookup(origin, target, func(r Outcome) {
				if r.Found {
					found++
				}
			})
		}
		ov.Run(ov.LookupWindow())
		if found < issued*7/10 {
			t.Errorf("%s: post-zone-failure resolved only %d/%d lookups", ov.Name(), found, issued)
		}
	}
}

// TestPlayPartitionHeal: while split, cross-side lookups fail; after
// healing and settling, they recover.
func TestPlayPartitionHeal(t *testing.T) {
	for _, ov := range backends(t, 100, 9) {
		ov.Run(4 * time.Second)
		res, err := Play(ov, rand.New(rand.NewSource(17)),
			scenario.PartitionHeal{Hold: 6 * time.Second, Heal: 10 * time.Second})
		if err != nil {
			t.Fatalf("%s: Play: %v", ov.Name(), err)
		}
		_ = res
		ov.MaintenanceTick()
		ids := ov.AliveIDs()
		rng := rand.New(rand.NewSource(19))
		found, issued := 0, 40
		for i := 0; i < issued; i++ {
			origin := rng.Intn(len(ids))
			target := ids[rng.Intn(len(ids))]
			ov.Lookup(origin, target, func(r Outcome) {
				if r.Found {
					found++
				}
			})
		}
		ov.Run(ov.LookupWindow())
		if found < issued*7/10 {
			t.Errorf("%s: post-heal resolved only %d/%d lookups", ov.Name(), found, issued)
		}
	}
}

// TestPlayRejectsUnsupportedPhase: TreeP-specific phases are refused, not
// silently skipped.
func TestPlayRejectsUnsupportedPhase(t *testing.T) {
	ov := NewFlood(20, 1)
	if _, err := Play(ov, rand.New(rand.NewSource(1)), scenario.RevivalWave{Over: time.Second}); err == nil {
		t.Fatal("Play accepted RevivalWave; want an unsupported-phase error")
	}
	if Supported(scenario.RevivalWave{}) {
		t.Error("Supported(RevivalWave) = true, want false")
	}
	if !Supported(scenario.Churn{}) {
		t.Error("Supported(Churn) = false, want true")
	}
}
