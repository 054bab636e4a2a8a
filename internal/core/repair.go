package core

import (
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/routing"
	"treep/internal/rtable"
)

// Ring self-healing and partition merge.
//
// The passive repair machinery (structural advertisements piggybacked on
// keep-alives, plus the post-sweep re-greet) closes most churn gaps, but
// not all of them: at ~10% of seeds under sustained churn two ID-adjacent
// survivors end up mutually unaware, with no common live peer whose
// two-per-side advertisement window covers both. Nothing in the passive
// protocol ever closes such a gap — coverage is probabilistic. The
// probes below make repair an enforced invariant:
//
//   - Verification probe: every probeInterval a node asks its nearest
//     direct-fresh neighbour on each side, "do you know anyone between
//     us?" The probe ring-walks toward the void (ProbeStep), the gap
//     shrinking strictly at every hop, until the true far edge answers
//     with a RingProbeAck and a mutual greeting follows.
//   - Void probe: a side with no direct-fresh neighbour at all past
//     EntryTTL launches the same walk through the best same-side
//     candidate anywhere in the table (bus links, children, superiors —
//     the hierarchy crosses stretches where level-0 knowledge died).
//     No candidate on that side means this node is the legitimate edge
//     of the line-shaped ID space (§III.a) and no probe fires.
//
// Probes cannot merge two overlays that formed independently: no node on
// a probe's walk knows any member of the other ring inside the void it
// probes. That takes one bridge link and the zip cascade: whenever a node
// gains a NEW direct level-0 contact on a side where it already held a
// different fresh nearest neighbour, it introduces the two to each other
// (MergeIntro both ways). Each introduction that names a peer not already
// direct-fresh at its receiver triggers a greeting, which creates a new
// direct contact on the far ring, which fires the trigger again one step
// further along — zipping two interleaved rings a1<b1<a2<b2<… together in
// O(n) introductions. The cascade halts exactly where the rings are
// already merged, because introductions naming direct-fresh peers are
// dropped.

// probeTTL bounds a probe walk. The walked gap shrinks strictly at every
// hop, so this is a safety net against stale-table cycles, not a
// tuning knob; churn gaps span a handful of nodes.
const probeTTL = 32

// farewellWindow (in entry TTLs) bounds how long after the last direct
// exchange an expiring level-0 entry still earns a farewell greeting
// (maintenance.go, sweepTick). Long enough to cover hearsay extending an
// entry's LastSeen past its last direct contact; short enough that
// once-direct far entries stop costing datagrams after a few TTLs.
const farewellWindow = 4

// ringDegreeFloor is the fresh level-0 degree below which a node
// suspects it is stranded and greets an anchor (sweepTick). A healthy
// node holds its pinged adjacents plus a halo of advertised neighbours,
// above the floor; small stranded segments hold only each other (larger
// ones are caught by the void branch at their outward-facing ends).
const ringDegreeFloor = 3

// farewellCheck runs just before the sweep, while the evidence still
// exists: a level-0 entry about to expire that (a) was recently in
// DIRECT contact and (b) has no surviving fresh entry between us — it
// was this node's effective nearest on its side — is either dead (the
// common case; the greeting vanishes) or alive with a table that rotted
// under churn. In the second case this node may be the peer's LAST
// holder: once every holder expires it, nobody ever contacts it again,
// the overlay closes the ring over its head, and the orphan — or a
// whole drifted segment clinging to a false far adjacency — becomes
// permanently unreachable. One greeting resurrects the link, and the
// zip introductions re-chain the rest.
//
// Both conditions are load-bearing dampers. Hearsay-only entries
// (LastDirect never advanced) age out and are re-learned from
// advertisements as a matter of course; greeting each would re-create
// the link just to watch it expire again, a permanent hello cycle
// across the whole table. And the effective-nearest condition is what
// keeps the cycle from re-arming itself: a farewell exchange makes the
// rescued link direct, so without it every second-and-further
// neighbour would re-qualify at its next expiry, forever.
// It returns the number of surviving (non-expiring) level-0 entries —
// the node's fresh ring degree, which sweepTick uses to detect
// stranded-segment membership.
func (n *Node) farewellCheck(now time.Duration) int {
	ttl := EntryTTL
	fresh := 0
	// Nearest surviving (non-expiring) entry per side.
	var survLeft, survRight proto.NodeRef
	l0 := &n.table.Level0
	for i := range l0.Len() {
		r, e := l0.At(i)
		if now-e.LastSeen > ttl {
			continue
		}
		fresh++
		if r.ID < n.cfg.ID && (survLeft.IsZero() || r.ID > survLeft.ID) {
			survLeft = r
		} else if r.ID > n.cfg.ID && (survRight.IsZero() || r.ID < survRight.ID) {
			survRight = r
		}
	}
	for i := range l0.Len() {
		r, e := l0.At(i)
		if now-e.LastSeen <= ttl || now-e.LastDirect > farewellWindow*ttl {
			continue
		}
		inner := (r.ID < n.cfg.ID && (survLeft.IsZero() || r.ID > survLeft.ID)) ||
			(r.ID > n.cfg.ID && (survRight.IsZero() || r.ID < survRight.ID))
		if inner {
			n.sendHello(r.Addr)
		}
	}
	return fresh
}

// anchorHello greets a random rendezvous anchor at a slow cadence. It is
// the stranded-segment escape hatch: a cluster of nodes the rest of the
// overlay has expired — the ring closed over their heads — keeps each
// other fresh, so the empty-table rejoin never fires, and their repair
// probes either dead-end at the segment's own false "space edge" (the
// void holds no candidate) or bounce between members. No local evidence
// distinguishes a stranded segment from the genuine edge of the line
// space; the anchor is the rendezvous that can. One greeting re-opens a
// delta exchange with the main component, after which the probes and
// zip introductions re-chain the whole segment. Genuine edge nodes pay
// one datagram per entry TTL, the steady-state cost of not being
// strandable.
func (n *Node) anchorHello(now time.Duration) {
	if len(n.cfg.Anchors) == 0 || now-n.lastAnchorHello < EntryTTL {
		return
	}
	n.lastAnchorHello = now
	a := n.cfg.Anchors[n.env.Rand().Intn(len(n.cfg.Anchors))]
	if a != n.Addr() {
		n.sendHello(a)
	}
}

// probeTick drives one round of ring self-healing; called from sweepTick.
func (n *Node) probeTick() {
	now := n.env.Now()
	left, right := n.table.Level0.NeighborsFresh(n.cfg.ID, now, EntryTTL)
	n.probeSide(0, left, now)
	n.probeSide(1, right, now)
}

func (n *Node) probeSide(side int, nearest proto.NodeRef, now time.Duration) {
	left := side == 0
	if !nearest.IsZero() {
		// Occupied side: verify adjacency at the probe cadence. The
		// neighbour we see may not be the survivor actually adjacent to
		// us — the churn hole is exactly that state.
		n.sideEmptySince[side] = 0
		if now-n.lastProbe[side] < probeInterval {
			return
		}
		n.lastProbe[side] = now
		n.sendRingProbe(nearest.Addr, left)
		return
	}
	if n.sideEmptySince[side] == 0 {
		n.sideEmptySince[side] = now
		return
	}
	if now-n.sideEmptySince[side] < EntryTTL || now-n.lastProbe[side] < probeInterval {
		return
	}
	// The side has been empty past its TTL: hunt for the far edge through
	// the best same-side candidate anywhere in the table.
	var cand proto.NodeRef
	var ok bool
	if left {
		if n.cfg.ID == 0 {
			return
		}
		cand, ok = n.table.NearestInRange(0, n.cfg.ID-1, n.cfg.ID, n.Addr())
	} else {
		if n.cfg.ID == idspace.MaxID {
			return
		}
		cand, ok = n.table.NearestInRange(n.cfg.ID+1, idspace.MaxID, n.cfg.ID, n.Addr())
	}
	if !ok {
		// Nobody known on that side at all: either the legitimate space
		// edge, or a stranded segment's false one — ask an anchor.
		n.anchorHello(now)
		return
	}
	n.lastProbe[side] = now
	n.sendRingProbe(cand.Addr, left)
}

func (n *Node) sendRingProbe(to uint64, left bool) {
	n.Stats.ProbesSent++
	p := proto.Acquire(proto.TRingProbe).(*proto.RingProbe)
	p.From, p.Origin, p.Left, p.TTL = n.Ref(), n.Ref(), left, probeTTL
	n.send(to, p)
}

func (n *Node) handleRingProbe(from uint64, m *proto.RingProbe) {
	if m.Origin.IsZero() || m.Origin.Addr == n.Addr() {
		return
	}
	now := n.env.Now()
	age := time.Duration(m.AgeDs) * 100 * time.Millisecond
	if age >= EntryTTL {
		return // knowledge of the origin drained in flight
	}
	validated := now - age
	next, edge := routing.ProbeStep(n.table, n.Ref(), m.Origin, m.Left)
	switch {
	case edge:
		// This node is the origin's missing neighbour — unless the pair is
		// already mutually linked: a verification probe between two healthy
		// adjacent nodes ends here every round, and answering it would be
		// steady-state noise. An ack is owed only when this side does not
		// hold the origin fresh.
		if e := n.table.Level0.Get(m.Origin.Addr); e != nil && e.DirectFresh(now, EntryTTL) {
			return
		}
		// File the origin (hearsay at the shipped age — the ack round
		// makes it direct) and introduce ourselves; the origin answers
		// with a greeting, making the link mutual.
		n.Stats.ProbeEdges++
		n.table.Level0.Upsert(m.Origin, proto.FNeighbor, validated, n.table.NextVersion(), rtable.Hearsay)
		ack := proto.Acquire(proto.TRingProbeAck).(*proto.RingProbeAck)
		ack.From, ack.Left, ack.Hops = n.Ref(), m.Left, probeTTL-m.TTL
		n.send(m.Origin.Addr, ack)
	case !next.IsZero():
		if m.TTL == 0 {
			return
		}
		n.Stats.ProbesForwarded++
		fwd := proto.Acquire(proto.TRingProbe).(*proto.RingProbe)
		fwd.From, fwd.Origin, fwd.Left, fwd.TTL = n.Ref(), m.Origin, m.Left, m.TTL-1
		fwd.AgeDs = proto.AgeFrom(now, validated)
		n.send(next.Addr, fwd)
	}
}

func (n *Node) handleRingProbeAck(from uint64, m *proto.RingProbeAck) {
	if m.From.Addr != from {
		return
	}
	side := 1
	if m.Left {
		side = 0
	}
	n.sideEmptySince[side] = 0
	// The far edge spoke to us directly: file it (firing the zip trigger
	// if it is new) and greet back so the edge's hearsay entry for us
	// turns direct too.
	n.ringUpsert(m.From)
	n.sendHello(from)
}

// ringUpsert files a direct level-0 contact, replacing the plain upsert
// in the keep-alive and greeting handlers. When the contact is brand-new
// (not direct-fresh before this message — curNew, stamped in
// HandleMessage), lands on a side where a different fresh neighbour is
// already held, AND sits strictly BEYOND that neighbour, the two are
// introduced to each other: one step of the zip cascade that merges
// independently formed rings.
//
// Two conditions damp the cascade to linear; both are load-bearing.
// (1) Beyond the nearest: a contact arriving BETWEEN self and the known
// nearest refines our own adjacency and needs no introduction; only one
// landing past the nearest extends the merge frontier outward. (2)
// Within the span horizon: the contact must land among this node's
// level0Span nearest on its side. Distant direct contacts are routine —
// bus peers, parents and children ping across the whole space — and
// introducing those starts an O(N) march of pointless greetings through
// the neighbourhood, each greeting a far pair that re-fires the trigger
// at both ends: a self-sustaining storm (measured at ~4000 intros/s
// across a 300-node overlay) that saturates every level-0 table. A
// foreign RING, by contrast, interleaves with ours, so its members land
// inside the horizon where the trigger stays armed.
func (n *Node) ringUpsert(r proto.NodeRef) {
	now := n.env.Now()
	var prev proto.NodeRef
	if n.curNew != 0 && r.Addr == n.curNew && r.ID != n.cfg.ID &&
		n.table.Level0.SideRank(n.cfg.ID, r.ID) < level0Span {
		left, right := n.table.Level0.NeighborsFresh(n.cfg.ID, now, EntryTTL)
		if r.ID < n.cfg.ID && !left.IsZero() && r.ID < left.ID {
			prev = left
		} else if r.ID > n.cfg.ID && !right.IsZero() && r.ID > right.ID {
			prev = right
		}
	}
	n.table.Level0.Upsert(r, proto.FNeighbor, now, n.table.NextVersion(), rtable.Direct)
	if !prev.IsZero() && prev.Addr != r.Addr {
		n.sendMergeIntro(prev.Addr, r, now)
		n.sendMergeIntro(r.Addr, prev, now)
	}
	if n.curNew != 0 && r.Addr == n.curNew {
		// First-contact handshake ("when two nodes communicate for the
		// first time they exchange information about their resources and
		// state"): ping back without waiting out the keep-alive, deferred
		// (node.go firstPing) until the current handler has composed its
		// reply. During a partition merge this is what moves the frontier
		// at network speed — each new cross-ring link immediately elicits
		// the other ring's neighbourhood delta, whose entries seed the
		// next link — rather than one hop per keep-alive round.
		// Ring-local contacts only: far first contacts (bus relinks,
		// hierarchy traffic) already exchange deltas on their own cadence,
		// and pinging every one of them measurably inflates steady-state
		// message and allocation volume.
		// The ring-change hook shares the guard: a far contact does not
		// alter ring adjacency, so there is nothing for the DHT to
		// reconcile.
		if n.table.Level0.SideRank(n.cfg.ID, r.ID) < level0Span {
			n.firstPing = r.Addr
			n.ringChanged()
		}
	}
}

func (n *Node) sendMergeIntro(to uint64, peer proto.NodeRef, now time.Duration) {
	var age uint16
	if e := n.table.Level0.Get(peer.Addr); e != nil {
		age = proto.AgeFrom(now, e.LastDirect)
	}
	n.Stats.MergeIntrosSent++
	m := proto.Acquire(proto.TMergeIntro).(*proto.MergeIntro)
	m.From, m.Peer, m.AgeDs = n.Ref(), peer, age
	n.send(to, m)
}

func (n *Node) handleMergeIntro(from uint64, m *proto.MergeIntro) {
	if m.Peer.IsZero() || m.Peer.Addr == n.Addr() {
		return
	}
	now := n.env.Now()
	age := time.Duration(m.AgeDs) * 100 * time.Millisecond
	if age >= EntryTTL {
		return
	}
	if e := n.table.Level0.Get(m.Peer.Addr); e != nil && e.DirectFresh(now, EntryTTL) {
		return // already merged here: the cascade stops
	}
	// Greet the named peer — and file NOTHING yet. The greeting exchange
	// makes the link direct on both ends and re-fires the new-contact
	// trigger there, advancing the zip frontier; a table entry appears
	// only when the peer answers. Filing the introduction as hearsay
	// would be faster by half a round-trip, but an introducer can
	// honestly name a peer that died inside the freshness window, and
	// routing trusts every table entry — after a correlated failure
	// burst those pre-seeded ghosts black-hole greedy lookups from
	// tables that never had the dead node in the first place.
	n.Stats.MergeGreets++
	n.sendHello(m.Peer.Addr)
}
