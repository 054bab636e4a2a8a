package simrt

import (
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/netsim"
	"treep/internal/proto"
)

// TestTargetedRootKill removes the single best-connected top-level node
// and verifies lookups keep working (no single point of failure).
func TestTargetedRootKill(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 200, Seed: 21, Bulk: true})
	c.StartAll()
	c.Run(6 * time.Second)

	var top *core.Node
	for _, n := range c.Nodes {
		if top == nil || n.MaxLevel() > top.MaxLevel() {
			top = n
		}
	}
	c.Kill(top)
	c.Run(15 * time.Second)

	found, failed, _ := runLookups(c, randomPairs(c, 100), proto.AlgoG)
	if failed > found/10 {
		t.Fatalf("after killing the root: %d found, %d failed", found, failed)
	}
}

// TestRingSegmentKill wipes a contiguous run of the ID space — the worst
// case for ring locality — and verifies the overlay reconnects across the
// gap.
func TestRingSegmentKill(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 240, Seed: 22, Bulk: true})
	c.StartAll()
	c.Run(6 * time.Second)

	// Kill a contiguous 15% segment by ID order.
	nodes := append([]*core.Node(nil), c.Nodes...)
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if nodes[j].ID() < nodes[i].ID() {
				nodes[i], nodes[j] = nodes[j], nodes[i]
			}
		}
	}
	start := len(nodes) / 3
	for i := start; i < start+len(nodes)*15/100; i++ {
		c.Kill(nodes[i])
	}
	c.Run(20 * time.Second)

	found, failed, _ := runLookups(c, randomPairs(c, 100), proto.AlgoG)
	total := found + failed
	if found < total*8/10 {
		t.Fatalf("after segment kill: %d/%d found", found, total)
	}
}

// TestHighLossOverlaySurvives runs the maintenance protocol under 20%
// message loss — UDP semantics at their worst — and verifies the overlay
// stays usable.
func TestHighLossOverlaySurvives(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 150, Seed: 23, Bulk: true,
		NetOpts: []netsim.Option{netsim.WithLoss(0.20)}})
	c.StartAll()
	c.Run(15 * time.Second)

	found, failed, _ := runLookups(c, randomPairs(c, 100), proto.AlgoG)
	total := found + failed
	// A 5-hop request plus reply crosses the lossy network ~6 times:
	// per-attempt survival is only ~0.8^6 ≈ 26%, so even 50% delivered
	// demonstrates the maintenance protocol keeps routing state usable.
	if found < total/2 {
		t.Fatalf("under 20%% loss: %d/%d found", found, total)
	}
}

// TestRejoinAfterRevival revives killed endpoints and has them rejoin via
// anchors, checking that returning peers reintegrate.
func TestRejoinAfterRevival(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 100, Seed: 24, Bulk: true})
	c.StartAll()
	c.Run(6 * time.Second)

	victims := []*core.Node{c.Nodes[10], c.Nodes[40], c.Nodes[70]}
	for _, v := range victims {
		c.Kill(v)
	}
	c.Run(15 * time.Second)

	// Revive: endpoint back up, protocol restarted, rejoin through any
	// live peer.
	for _, v := range victims {
		c.Revive(v)
		v.Join(c.Nodes[0].Addr())
	}
	c.Run(15 * time.Second)

	for i, v := range victims {
		if v.Table().Level0.Len() == 0 {
			t.Fatalf("revived node %d still isolated", i)
		}
	}
	// A revived node's ID resolves again.
	found, failed, _ := runLookups(c, [][2]*core.Node{{c.Nodes[5], victims[0]}}, proto.AlgoG)
	if found != 1 {
		t.Fatalf("revived node not resolvable: %d/%d", found, failed)
	}
}

// TestMaintenanceTrafficBounded verifies the §III claim of low overhead:
// per-node maintenance traffic stays within a small constant budget per
// keep-alive interval.
func TestMaintenanceTrafficBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("slow simulation; skipped with -short")
	}
	c := New(Options{N: 300, Seed: 25, Bulk: true})
	c.StartAll()
	c.Run(10 * time.Second) // warm up past the initial bursts
	warm := c.Net.Stats()
	c.Run(20 * time.Second)
	s := c.Net.Stats()
	s.Sent, s.Bytes = s.Sent-warm.Sent, s.Bytes-warm.Bytes
	perNodePerSecond := float64(s.Sent) / 300 / 20
	// Keep-alive interval 2s: L/R pings + pongs + child reports + acks +
	// bus pings ≈ 10 msgs / 2s. Flag anything wildly above.
	if perNodePerSecond > 25 {
		t.Fatalf("maintenance traffic %.1f msgs/node/s — overhead not low", perNodePerSecond)
	}
	t.Logf("maintenance: %.1f msgs/node/s, %.0f bytes/node/s",
		perNodePerSecond, float64(s.Bytes)/300/20)
}
