package netsim

import (
	"testing"
	"time"

	"treep/internal/sim"
)

// TestLinkFilterDropsAndCounts verifies the per-link veto: filtered pairs
// lose their datagrams (counted as LostFiltered), unfiltered pairs
// deliver, and removing the filter restores the link.
func TestLinkFilterDropsAndCounts(t *testing.T) {
	k := sim.New(1)
	n := New(k, WithLatency(FixedLatency(time.Millisecond)))
	got := map[Addr]int{}
	a := n.Attach(func(from Addr, payload interface{}, size int) { got[1]++ })
	b := n.Attach(func(from Addr, payload interface{}, size int) { got[2]++ })
	c := n.Attach(func(from Addr, payload interface{}, size int) { got[3]++ })

	// Block only a→b.
	n.SetLinkFilter(func(from, to Addr) bool { return !(from == a && to == b) })
	n.Send(a, b, "x", 1)
	n.Send(a, c, "x", 1)
	n.Send(b, a, "x", 1)
	k.RunFor(time.Second)
	if got[2] != 0 {
		t.Fatalf("filtered link delivered %d", got[2])
	}
	if got[3] != 1 || got[1] != 1 {
		t.Fatalf("unfiltered links: a=%d c=%d", got[1], got[3])
	}
	if s := n.Stats(); s.LostFiltered != 1 {
		t.Fatalf("LostFiltered = %d, want 1", s.LostFiltered)
	}

	n.SetLinkFilter(nil)
	n.Send(a, b, "x", 1)
	k.RunFor(time.Second)
	if got[2] != 1 {
		t.Fatalf("link still dead after filter removal: %d", got[2])
	}
}
