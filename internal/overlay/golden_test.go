package overlay

import (
	"math/rand"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/scenario"
	"treep/internal/simrt"
)

// goldenScript exercises every protocol-agnostic phase kind that draws
// randomness or mutates membership, in an order where each leaves damage
// for the next.
func goldenScript() []scenario.Phase {
	return []scenario.Phase{
		scenario.Churn{For: 8 * time.Second, JoinRate: 3, LeaveRate: 3},
		scenario.ZoneFailure{Zone: scenario.ZoneFraction(0.40, 0.55), Settle: 6 * time.Second},
		scenario.PartitionHeal{Hold: 5 * time.Second, Heal: 6 * time.Second},
		scenario.Settle{For: 4 * time.Second},
	}
}

// TestPhaseInterpreterGolden pins the trajectories of the five shared
// phases on both of their drivers. The constants were recorded at commit
// 28b0a6f, when scenario.Engine and overlay.Play each carried their own
// copy of the phase logic; they must hold unchanged now that both run the
// one copy in scenario/phases.go (no RNG draw moved, no victim changed).
// PR 25 (parent 59e1167) re-recorded the engine's events and digest and
// TreeP's sent: one keep-alive ping per active pair and no re-greeting of
// live neighbours send fewer datagrams. Every joins, leaves, zoneKilled,
// PlayResult and members value, and the chord and flood rows, held. The
// same three moved again when a parent began to split only the level
// whose children exceed nc (no standing promotions, fewer datagrams); the
// rest held. The same three moved again when each peer's keep-alive and
// child-report rounds began at a phase of its own instead of all at one
// instant; the rest held.
func TestPhaseInterpreterGolden(t *testing.T) {
	const n = 300
	type engineWant struct {
		joins, leaves, zoneKilled int
		events, digest            uint64
	}
	type playWant struct {
		res  PlayResult
		sent uint64
		// members folds the surviving IDs: it moves when a different
		// victim dies even where the counts agree (the flooding backend
		// sends nothing outside lookups, so Sent alone would not see it).
		members uint64
	}
	golden := []struct {
		seed   int64
		engine engineWant
		play   map[string]playWant
	}{
		{1, engineWant{25, 23, 41, 49290, 0xe0ba433c55a5e36f}, map[string]playWant{
			"treep": {PlayResult{32, 23, 47}, 34001, 0x8ad7c04a7a2ddd57},
			"chord": {PlayResult{32, 23, 41}, 16120, 0xfe6e5833afce61e6},
			"flood": {PlayResult{32, 23, 58}, 0, 0x441754d7355d7189},
		}},
		{2, engineWant{23, 16, 46, 48312, 0xc263cab6eee03bef}, map[string]playWant{
			"treep": {PlayResult{31, 23, 44}, 31787, 0x7355bbcfd8df2510},
			"chord": {PlayResult{31, 23, 45}, 15862, 0x30db0fe99afdcf09},
			"flood": {PlayResult{31, 23, 46}, 0, 0xb973bb7a9472d450},
		}},
		{3, engineWant{28, 22, 51, 46635, 0x4d9a8c05d9728d3c}, map[string]playWant{
			"treep": {PlayResult{18, 16, 48}, 31577, 0xafba25b60ee9102a},
			"chord": {PlayResult{18, 16, 41}, 15740, 0xcdabf674b9da2d72},
			"flood": {PlayResult{18, 16, 39}, 0, 0xf1e2485567951ba2},
		}},
	}
	for _, g := range golden {
		c := simrt.New(simrt.Options{N: n, Seed: g.seed, Config: core.Defaults(), Bulk: true})
		c.StartAll()
		res := scenario.Run(c, scenario.Options{}, goldenScript()...)
		got := engineWant{res.Joins, res.Leaves, res.ZoneKilled, res.Events, c.StateDigest()}
		if got != g.engine {
			t.Errorf("seed %d engine: got %+v, want %+v", g.seed, got, g.engine)
		}
		for _, ov := range backends(t, n, g.seed) {
			pr, err := Play(ov, rand.New(rand.NewSource(g.seed)), goldenScript()...)
			if err != nil {
				t.Fatalf("seed %d %s: %v", g.seed, ov.Name(), err)
			}
			if got := (playWant{pr, ov.NetStats().Sent, membership(ov)}); got != g.play[ov.Name()] {
				t.Errorf("seed %d %s: got %+v, want %+v", g.seed, ov.Name(), got, g.play[ov.Name()])
			}
		}
	}
}

// membership folds the live IDs, in AliveIDs order, into one word.
func membership(ov Overlay) uint64 {
	h := uint64(14695981039346656037)
	for _, id := range ov.AliveIDs() {
		h = (h ^ uint64(id)) * 1099511628211
	}
	return h
}
