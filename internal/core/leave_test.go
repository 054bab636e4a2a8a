package core

import (
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
)

// leaveFrom delivers ref's graceful departure to n.
func leaveFrom(n *Node, ref proto.NodeRef) {
	n.HandleMessage(ref.Addr, &proto.Leave{From: ref})
}

// knows reports whether any table, the peer-state map or either rejoin
// fallback of n still holds addr.
func knows(n *Node, addr uint64) bool {
	t := n.table
	if t.Level0.Get(addr) != nil || t.Children.Get(addr) != nil || t.NbrChildren.Get(addr) != nil || t.Superiors.Get(addr) != nil {
		return true
	}
	for _, s := range t.Bus {
		if s != nil && s.Get(addr) != nil {
			return true
		}
	}
	if p, ok := t.Parent(); ok && p.Addr == addr {
		return true
	}
	if n.peers.Find(addr) != nil {
		return true
	}
	for _, a := range n.recentPeers {
		if a == addr {
			return true
		}
	}
	return n.bootCache[bootSlot(addr)] == addr
}

// TestLeaveOfParentAdoptsOrElects: the parent's departure is repaired on
// the spot — a known member of the parent's level is courted, and with
// none known the election countdown starts — instead of a sweep later.
func TestLeaveOfParentAdoptsOrElects(t *testing.T) {
	parent := mkRef(idspace.FromFraction(0.52), 5, 1)
	left, right := mkRef(idspace.FromFraction(0.4), 2, 0), mkRef(idspace.FromFraction(0.6), 3, 0)

	t.Run("adopt", func(t *testing.T) {
		n, env := testNode(idspace.FromFraction(0.5), 1)
		n.InstallLevel0(left, right)
		n.InstallParent(parent)
		uncle := mkRef(idspace.FromFraction(0.7), 6, 1)
		n.InstallSuperiors(uncle)
		leaveFrom(n, parent)
		if _, ok := n.table.Parent(); ok {
			t.Fatal("the departed parent still fills the slot")
		}
		if n.courting != uncle.Addr || len(msgsOfType[*proto.ChildReport](env.sent)) != 1 {
			t.Fatalf("courting %d with %d child reports, want the known level-1 member %d courted once",
				n.courting, len(msgsOfType[*proto.ChildReport](env.sent)), uncle.Addr)
		}
		if hellos := msgsOfType[*proto.Hello](env.sent); len(hellos) != 2 {
			t.Fatalf("%d hellos, want both ring neighbours re-greeted", len(hellos))
		}
		if n.Stats.LeavesRecv != 1 {
			t.Fatalf("LeavesRecv = %d, want 1", n.Stats.LeavesRecv)
		}
	})

	t.Run("elect", func(t *testing.T) {
		n, env := testNode(idspace.FromFraction(0.5), 1)
		n.InstallLevel0(left, right)
		n.InstallParent(parent)
		leaveFrom(n, parent)
		if n.courting != 0 || n.electionTimer == (Timer{}) || n.Stats.ElectionsStarted != 1 {
			t.Fatalf("courting %d, election timer %v, %d elections started: want an election and nobody courted",
				n.courting, n.electionTimer != (Timer{}), n.Stats.ElectionsStarted)
		}
		if calls := msgsOfType[*proto.ElectionCall](env.sent); len(calls) != 2 {
			t.Fatalf("%d election calls, want one per ring neighbour", len(calls))
		}
		env.advance(electionMax + time.Second)
		if n.MaxLevel() != 1 || n.Stats.ElectionsWon != 1 {
			t.Fatalf("level %d after the countdown (%d won), want the orphan promoted", n.MaxLevel(), n.Stats.ElectionsWon)
		}
	})
}

// TestLeaveOfChildArmsDemotion: a parent left with fewer than two children
// starts its demotion countdown at the Leave, not at the next sweep.
func TestLeaveOfChildArmsDemotion(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	stays, leaves := mkRef(idspace.FromFraction(0.49), 7, 0), mkRef(idspace.FromFraction(0.51), 8, 0)
	n.InstallChildren(stays, leaves)
	env.advance(sweepInterval + time.Millisecond)
	if n.demotionTimer != (Timer{}) {
		t.Fatal("two children, yet a demotion countdown runs")
	}
	leaveFrom(n, leaves)
	if n.table.Children.Len() != 1 || n.demotionTimer == (Timer{}) {
		t.Fatalf("%d children, demotion timer %v: want one child and the countdown armed",
			n.table.Children.Len(), n.demotionTimer != (Timer{}))
	}
	env.advance(demotionMax + time.Second)
	if n.MaxLevel() != 0 || n.Stats.Demotions != 1 {
		t.Fatalf("level %d, %d demotions: the countdown the Leave armed did not run out", n.MaxLevel(), n.Stats.Demotions)
	}
}

// TestLeavePurgesEverySlot: the leaver goes from every table, the
// peer-state map and both rejoin fallbacks, and a courtship of it ends.
func TestLeavePurgesEverySlot(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	leaver := mkRef(idspace.FromFraction(0.55), 9, 2)
	other := mkRef(idspace.FromFraction(0.45), 4, 0)
	// A first message from an address the ring does not hold files it in
	// the peer map and both fallbacks; then it is installed everywhere.
	n.HandleMessage(leaver.Addr, &proto.Hello{From: leaver})
	n.InstallLevel0(leaver, other)
	n.InstallBus(1, leaver)
	n.InstallChildren(leaver)
	n.InstallNbrChildren(leaver)
	n.InstallSuperiors(leaver)
	n.courtRef(leaver)
	court := n.courtTimer
	if !knows(n, leaver.Addr) || n.bootCache[bootSlot(leaver.Addr)] != leaver.Addr {
		t.Fatal("the leaver was not filed in the first place")
	}
	env.drain()
	leaveFrom(n, leaver)
	if knows(n, leaver.Addr) {
		t.Fatal("the leaver survives its Leave somewhere in the node")
	}
	if n.courting != 0 || n.courtTimer != (Timer{}) || court.Pending() {
		t.Fatalf("courting %d, timer held %v, pending %v: the courtship of the leaver goes on",
			n.courting, n.courtTimer != (Timer{}), court.Pending())
	}
	if n.table.Level0.Get(other.Addr) == nil {
		t.Fatal("a bystander was purged with the leaver")
	}
}

// TestLeaveFromStrangerChangesNothing: a Leave from an address the node
// holds nowhere leaves no trace, repairs nothing and is not counted.
func TestLeaveFromStrangerChangesNothing(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel0(mkRef(idspace.FromFraction(0.4), 2, 0), mkRef(idspace.FromFraction(0.6), 3, 0))
	n.InstallParent(mkRef(idspace.FromFraction(0.52), 5, 1))
	version, size := n.table.Version(), n.table.Size()
	leaveFrom(n, mkRef(idspace.FromFraction(0.9), 77, 0))
	if knows(n, 77) {
		t.Fatal("the stranger's Leave filed the stranger")
	}
	if n.table.Version() != version || n.table.Size() != size {
		t.Fatalf("table moved from version %d size %d to %d/%d", version, size, n.table.Version(), n.table.Size())
	}
	if _, ok := n.table.Parent(); !ok || n.electionTimer != (Timer{}) || n.demotionTimer != (Timer{}) {
		t.Fatal("the stranger's Leave started a hierarchy repair")
	}
	if len(env.sent) != 0 || n.Stats.LeavesRecv != 0 {
		t.Fatalf("%d messages sent, LeavesRecv %d: want silence and no count", len(env.sent), n.Stats.LeavesRecv)
	}
}

// TestDepartAnnouncesOnceAndStops: one Leave per distinct active peer,
// child and parent — a peer holding two of the roles hears it once — and
// the node is stopped afterwards.
func TestDepartAnnouncesOnceAndStops(t *testing.T) {
	n, env := testNode(idspace.FromFraction(0.5), 1)
	n.InstallLevel(1)
	left, right := mkRef(idspace.FromFraction(0.4), 2, 0), mkRef(idspace.FromFraction(0.6), 3, 1)
	far := mkRef(idspace.FromFraction(0.9), 4, 0) // known, but not an active connection
	n.InstallLevel0(left, right, far)
	n.InstallBus(1, right) // ring neighbour and bus neighbour: one Leave
	child := mkRef(idspace.FromFraction(0.51), 7, 0)
	n.InstallChildren(child, left) // left is a ring neighbour and a child: one Leave
	parent := mkRef(idspace.FromFraction(0.55), 5, 2)
	n.InstallParent(parent)
	env.drain()

	n.Depart()
	sent := env.drain()
	if len(msgsOfType[*proto.Leave](sent)) != len(sent) {
		t.Fatalf("Depart sent something other than Leaves: %+v", sent)
	}
	got, want := sortedAddrs(sent), []uint64{left.Addr, right.Addr, parent.Addr, child.Addr}
	if len(got) != len(want) {
		t.Fatalf("Leaves went to %v, want exactly %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Leaves went to %v, want exactly %v", got, want)
		}
	}
	if n.Stats.LeavesSent != 4 {
		t.Fatalf("LeavesSent = %d, want 4", n.Stats.LeavesSent)
	}
	if n.started {
		t.Fatal("the node is still started after Depart")
	}
	env.advance(time.Minute)
	if len(env.sent) != 0 {
		t.Fatalf("a departed node sent %d more messages", len(env.sent))
	}
}
