package core

import (
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// distTo abbreviates the Euclidean metric in protocol code.
func distTo(a, b idspace.ID) uint64 { return idspace.Dist(a, b) }

// --- periodic timers ---------------------------------------------------------

// armMaintenance arms the three maintenance loops, recurring timers that Stop
// cancels (no per-tick re-arm closure). The keep-alive and child-report rounds
// first fire at the node's phase, not one period after Start, so peers started
// at one instant do not tick in lock-step; the sweep does (DESIGN.md §2).
func (n *Node) armMaintenance() {
	n.keepaliveTimer = n.env.SetPeriodic(idspace.Phase(n.cfg.ID, keepAlive), keepAlive, n.keepaliveTick)
	n.sweepTimer = n.env.SetPeriodic(sweepInterval, sweepInterval, n.sweepTick)
	n.reportTimer = n.env.SetPeriodic(idspace.Phase(n.cfg.ID, childReport), childReport, n.reportTick)
}

// keepaliveTick pings active connections, piggybacking the routing delta
// each peer has not yet seen (§III.d: "the update can be delayed, waiting
// to be piggybacked during a keep-alive exchange"). A ping and its pong
// carry both ends' deltas, so a pair needs one a round: the lower (ID,
// Addr) end sends it; the higher pings only when the lower has been silent
// past keepAlive+rttBound, one round and its slack. An order, not "heard
// lately": ends that tick in lock-step would both skip every other round
// (DESIGN.md §2).
func (n *Node) keepaliveTick() {
	now := n.env.Now()
	// The round's pings share one send instant, which makes them the
	// round-trip samples (handlePong): no per-ping bookkeeping.
	n.rttFirst, n.rttSentAt = n.pingSeq+1, now
	for _, peer := range n.activePeers() {
		lower := peer.ID < n.cfg.ID || (peer.ID == n.cfg.ID && peer.Addr < n.Addr())
		if last, ok := n.table.LastDirect(peer.Addr); lower && ok && now-last <= keepAlive+n.rttBound() {
			continue
		}
		n.sendPing(peer.Addr)
	}
	n.rttPings = n.pingSeq + 1 - n.rttFirst
}

func (n *Node) sendPing(to uint64) {
	n.pingSeq++
	p := proto.Acquire(proto.TPing).(*proto.Ping)
	p.From, p.Seq = n.Ref(), n.pingSeq
	p.Entries = n.composeUpdate(to, false)
	n.send(to, p)
}

// pushUpdates immediately ships pending deltas to all active peers; called
// after membership changes when ImmediateUpdates is set (the paper's
// current implementation: "the update is exchanged immediately").
func (n *Node) pushUpdates() {
	if !n.cfg.ImmediateUpdates || !n.started {
		return
	}
	v := n.table.Version()
	for _, peer := range n.activePeers() {
		if ps := n.peers.Find(peer.Addr); ps == nil || ps.LastSent < v {
			n.sendPing(peer.Addr)
		}
	}
}

// sweepTick expires stale routing entries and repairs the structures that
// lost members. Most level-0 expiries are hearsay contacts further out
// aging away: those cost nothing while both nearest neighbours are live.
func (n *Node) sweepTick() {
	now := n.env.Now()
	freshDegree := n.farewellCheck(now)
	res := n.table.Sweep(now, EntryTTL)
	n.expireSuspects(now)
	for addrs, i := n.peers.Keys(), n.peers.Len()-1; i >= 0; i-- { // from the back: it deletes
		ps := n.peers.Find(addrs[i])
		if ps.HasClaim && now-ps.ClaimAt >= EntryTTL {
			ps.HasClaim = false
		}
		if ps.Refused && now-ps.RefusedAt >= EntryTTL {
			ps.Refused = false
		}
		// A state that carries nothing any more is dropped. Delta cursors
		// for long-idle peers go too — without this the table grows with
		// every address ever contacted, a slow leak under perpetual
		// churn. Dropping an idle cursor is safe: recontacting the peer
		// just resends a full (receiver-deduplicated) table once. The
		// horizon is several TTLs so active-connection cursors, which
		// refresh every keep-alive, are never touched.
		idleCursor := ps.LastSent == 0 || now-ps.LastSentAt >= 4*EntryTTL
		if !ps.HasClaim && !ps.Refused && idleCursor {
			n.peers.Delete(addrs[i])
		}
	}
	if n.table.Level0.Len() == 0 {
		// Every contact is gone: only an anchor can bring us back.
		n.contactAnchor()
	} else if freshDegree < ringDegreeFloor {
		// A handful of fresh contacts is how a stranded segment looks
		// from the inside: its members keep each other alive while the
		// rest of the overlay has forgotten them, so the empty-table
		// rejoin above never fires (repair.go, anchorHello).
		n.anchorHello(now)
	}
	// Ring self-healing runs every sweep regardless of what expired: the
	// gaps it closes are the ones no expiry ever reports (repair.go).
	n.probeTick()
	if res.Empty() {
		n.ensureHierarchy()
		return
	}

	// Level-0 repair: if a direct neighbour disappeared, promote the next
	// nearest known contact to a direct link by greeting it — unless it
	// already is one (heard from first-hand within the TTL).
	if len(res.Level0) > 0 {
		l, r := n.table.Level0.Neighbors(n.cfg.ID)
		for _, nb := range []proto.NodeRef{l, r} {
			if !nb.IsZero() && !n.table.Level0.Get(nb.Addr).DirectFresh(now, EntryTTL) {
				n.sendHello(nb.Addr)
			}
		}
	}

	// Bus repair per level (ascending, for cross-process determinism):
	// relink towards the new nearest member.
	for _, lost := range res.Bus {
		if lost.Level > n.maxLevel {
			continue
		}
		if best, _, ok := n.bestKnownMember(lost.Level, n.cfg.ID); ok {
			n.sendBusLinkReq(best.Addr, lost.Level)
		}
	}

	// Parent loss: purge the dead parent from every structure so it cannot
	// be immediately re-adopted from the superior list, then repair —
	// preferably by adopting a replacement from the replicated knowledge
	// ("this replication of information provides a higher degree of
	// robustness at minimum cost"), otherwise by election.
	if res.ParentLost {
		n.table.RemoveEverywhere(res.Parent.Addr)
		n.adoptOrElect()
	}

	// Child loss: an under-filled parent starts its demotion countdown.
	if len(res.Children) > 0 {
		n.maybeStartDemotion()
	}

	n.ensureHierarchy()
}

// reportTick sends the child→parent heartbeat (§III.a: children that stop
// reporting are deleted by the parent).
func (n *Node) reportTick() {
	if p, ok := n.table.Parent(); ok {
		n.sendChildReport(p.Addr)
		return
	}
	n.adoptOrElect()
	// Still nothing in motion: the overlay around us cannot help (no known
	// candidate, not enough degree to elect). Pull fresh knowledge through
	// an anchor (§III's anchor system) — isolation and fragment merging
	// both need an out-of-band contact.
	if _, ok := n.table.Parent(); !ok && n.courting == 0 && n.electionTimer == (Timer{}) {
		n.contactAnchor()
	}
}

// sendHello sends a pooled first-contact/repair greeting.
func (n *Node) sendHello(to uint64) {
	h := proto.Acquire(proto.THello).(*proto.Hello)
	h.From, h.MaxChildren = n.Ref(), uint8(n.maxChildren)
	n.send(to, h)
}

// sendBusLinkReq sends a pooled bus (re)link request.
func (n *Node) sendBusLinkReq(to uint64, lvl uint8) {
	r := proto.Acquire(proto.TBusLinkReq).(*proto.BusLinkReq)
	r.From, r.Level = n.Ref(), lvl
	n.send(to, r)
}

// sendChildReport sends the pooled child→parent heartbeat.
func (n *Node) sendChildReport(to uint64) {
	cr := proto.Acquire(proto.TChildReport).(*proto.ChildReport)
	cr.From, cr.Degree = n.Ref(), uint8(n.degreeAt(0))
	n.send(to, cr)
}

// sendReparent sends a pooled hand-off to newParent, whose knowledge is
// ageDs old; the zero newParent is a refusal.
func (n *Node) sendReparent(to uint64, newParent proto.NodeRef, ageDs uint16) {
	r := proto.Acquire(proto.TReparent).(*proto.Reparent)
	r.From, r.NewParent, r.AgeDs = n.Ref(), newParent, ageDs
	n.send(to, r)
}

// sendJoinRequest sends a pooled join request.
func (n *Node) sendJoinRequest(to uint64) {
	r := proto.Acquire(proto.TJoinRequest).(*proto.JoinRequest)
	r.From = n.Ref()
	n.send(to, r)
}

// contactAnchor greets a random anchor; isolated nodes rejoin through it.
// A fully dark node (empty level-0 table) additionally retries through its
// recent-peers ring: under sustained churn every static anchor can be
// dead, and without a dynamic fallback such a node loops join requests at
// dead addresses forever while the rest of the overlay, having expired
// it, closes the ring over its head.
func (n *Node) contactAnchor() {
	dark := n.table.Level0.Len() == 0
	if dark {
		if p := n.nextRecentPeer(); p != 0 {
			n.sendJoinRequest(p)
		}
		// The recent ring can consist entirely of peers that died in the
		// same wave (a dying neighbourhood talks mostly to itself near
		// the end); the bootstrap cache reaches back over the node's
		// whole lifetime and across the whole ID space.
		if p := n.nextBootPeer(); p != 0 {
			n.sendJoinRequest(p)
		}
	}
	if len(n.cfg.Anchors) == 0 {
		return
	}
	a := n.cfg.Anchors[n.env.Rand().Intn(len(n.cfg.Anchors))]
	if a == n.Addr() {
		return
	}
	if dark {
		// Fully dark: full re-join.
		n.sendJoinRequest(a)
		return
	}
	n.sendHello(a)
}

// nextRecentPeer rotates through the recent-peers ring, skipping empty
// slots and this node's own address; zero means the ring is empty.
func (n *Node) nextRecentPeer() uint64 {
	for i := 0; i < recentPeerSlots; i++ {
		n.recentScan = (n.recentScan + 1) % recentPeerSlots
		if p := n.recentPeers[n.recentScan]; p != 0 && p != n.Addr() {
			return p
		}
	}
	return 0
}

// nextBootPeer rotates through the bootstrap cache the same way.
func (n *Node) nextBootPeer() uint64 {
	for i := 0; i < bootCacheSlots; i++ {
		n.bootScan = (n.bootScan + 1) % bootCacheSlots
		if p := n.bootCache[n.bootScan]; p != 0 && p != n.Addr() {
			return p
		}
	}
	return 0
}

// ensureHierarchy re-checks the standing conditions that drive hierarchy
// dynamics; cheap because all triggers are guarded.
func (n *Node) ensureHierarchy() {
	if _, ok := n.table.Parent(); !ok {
		n.maybeStartElection()
	}
	n.maybeStartDemotion()
	n.maybeCancelDemotion()
}

// --- first contact and joins ---------------------------------------------------

func (n *Node) handleHello(from uint64, m *proto.Hello) {
	known := n.table.Level0.Get(from) != nil
	n.ringUpsert(m.From)
	n.noteRef(m.From, true)
	if !known {
		// Mutual introduction: "When two nodes communicate for the first
		// time they exchange information about their resources and state."
		n.sendHello(from)
	}
}

func (n *Node) handlePing(from uint64, m *proto.Ping) {
	n.ringUpsert(m.From)
	n.noteRef(m.From, true)
	n.applyEntries(from, m.From, m.Entries)
	pong := proto.Acquire(proto.TPong).(*proto.Pong)
	pong.From, pong.Seq = n.Ref(), m.Seq
	pong.Entries = n.composeUpdate(from, n.table.Children.Get(from) != nil)
	n.send(from, pong)
}

func (n *Node) handlePong(from uint64, m *proto.Pong) {
	if m.Seq-n.rttFirst < n.rttPings {
		n.observeRTT(n.env.Now() - n.rttSentAt)
	}
	n.ringUpsert(m.From)
	n.noteRef(m.From, true)
	n.applyEntries(from, m.From, m.Entries)
}

func (n *Node) handleJoinRequest(from uint64, m *proto.JoinRequest) {
	// Route the joiner to the level-0 position nearest its coordinate.
	nearest, ok := n.table.Level0.Nearest(m.From.ID, nil)
	selfD := distTo(n.cfg.ID, m.From.ID)
	if ok && distTo(nearest.ID, m.From.ID) < selfD && nearest.Addr != from {
		r := proto.Acquire(proto.TJoinRedirect).(*proto.JoinRedirect)
		r.From, r.Closer = n.Ref(), nearest
		n.send(from, r)
		return
	}
	// This node is the best known position: hand the joiner its
	// neighbours and the responsible parent.
	left, right := n.table.Level0.Neighbors(m.From.ID)
	// The accepting node is itself one of the joiner's neighbours.
	if n.cfg.ID <= m.From.ID {
		if left.IsZero() || left.ID < n.cfg.ID {
			left = n.Ref()
		}
	} else if right.IsZero() || right.ID > n.cfg.ID {
		right = n.Ref()
	}
	var parent proto.NodeRef
	if p, ok := n.table.Parent(); ok {
		parent = p
	}
	if best, _, ok := n.bestKnownMember(m.From.MaxLevel+1, m.From.ID); ok {
		parent = best
	}
	// ringUpsert, not a plain upsert: a joiner arriving over a bridge link
	// from a foreign ring must fire the zip introductions here too.
	n.ringUpsert(m.From)
	acc := proto.Acquire(proto.TJoinAccept).(*proto.JoinAccept)
	acc.From, acc.Left, acc.Right, acc.Parent = n.Ref(), left, right, parent
	n.send(from, acc)
	n.pushUpdates()
}

func (n *Node) handleJoinRedirect(from uint64, m *proto.JoinRedirect) {
	if m.Closer.IsZero() || m.Closer.Addr == n.Addr() {
		return
	}
	n.noteRefAt(m.Closer, false, n.env.Now()-EntryTTL/2)
	n.sendJoinRequest(m.Closer.Addr)
}

func (n *Node) handleJoinAccept(from uint64, m *proto.JoinAccept) {
	now := n.env.Now()
	n.joining = false
	n.ringUpsert(m.From)
	for _, nb := range []proto.NodeRef{m.Left, m.Right} {
		if nb.IsZero() || nb.Addr == n.Addr() {
			continue
		}
		n.table.Level0.Upsert(nb, proto.FNeighbor, now, n.table.NextVersion(), rtable.Hearsay)
		n.sendHello(nb.Addr)
	}
	if !m.Parent.IsZero() && m.Parent.Addr != n.Addr() {
		// The suggested parent is hearsay from the acceptor: court it
		// (half-TTL knowledge credit until it answers).
		n.noteRefAt(m.Parent, false, n.env.Now()-EntryTTL/2)
		n.courtRef(m.Parent)
	}
	n.ensureHierarchy()
}

// --- received-entry application ------------------------------------------------

// noteRef files a freshly learned ref into the right structures based on
// its advertised level (membership knowledge for routing and bus repair).
// direct distinguishes the message sender itself from hearsay refs.
func (n *Node) noteRef(r proto.NodeRef, direct bool) {
	n.noteRefAt(r, direct, n.env.Now())
}

// noteRefAt is noteRef with an explicit validation instant (now minus the
// shipped age, for relayed entries). It reports whether the ref was new to
// any structure — fresh upper-level knowledge is forwarded up the tree.
func (n *Node) noteRefAt(r proto.NodeRef, direct bool, validated time.Duration) bool {
	if r.IsZero() || r.Addr == n.Addr() {
		return false
	}
	mode := rtable.Hearsay
	if direct {
		mode = rtable.Direct
	}
	created := false
	top := n.claimCap(r.Addr, r.MaxLevel)
	if top > 0 {
		for lvl := uint8(1); lvl <= top && lvl <= n.cfg.MaxHeight; lvl++ {
			// Record membership only at levels this node has a stake in:
			// its own levels (bus upkeep) and one above (parent search) —
			// and only the nearest few members per side, so tables stay at
			// the §III.e sizes instead of accumulating the whole level.
			if lvl > n.maxLevel+1 {
				continue
			}
			set := n.table.BusLevel(lvl)
			if set.Get(r.Addr) == nil {
				if !direct && set.SideRank(n.cfg.ID, r.ID) >= busSpan {
					continue
				}
				created = true
			}
			set.Upsert(r, proto.FNeighbor, validated, n.table.NextVersion(), mode)
		}
	}
	return created
}

// claimCap bounds a peer's believed level by its own fresh first-hand
// claim: hearsay advertising a level above what the peer last said about
// itself is stale and must not resurrect phantom bus membership.
func (n *Node) claimCap(addr uint64, advertised uint8) uint8 {
	ps := n.peers.Find(addr)
	if ps == nil || !ps.HasClaim || n.env.Now()-ps.ClaimAt >= EntryTTL {
		return advertised
	}
	if ps.ClaimLevel < advertised {
		return ps.ClaimLevel
	}
	return advertised
}

// applyEntries merges a received routing delta, applying the §III.c
// placement rules relative to who sent it.
func (n *Node) applyEntries(from uint64, sender proto.NodeRef, entries []proto.Entry) {
	if len(entries) == 0 {
		return
	}
	now := n.env.Now()
	parent, hasParent := n.table.Parent()
	fromParent := hasParent && parent.Addr == from
	// §III.c stores children of *direct* neighbours only, on every bus
	// the node holds.
	fromBusNbr := false
	for lvl := uint8(1); lvl <= n.maxLevel && !fromBusNbr; lvl++ {
		bl, br := n.busNeighbors(lvl)
		fromBusNbr = (!bl.IsZero() && bl.Addr == from) || (!br.IsZero() && br.Addr == from)
	}
	// Newly learned upper-level members are forwarded to the parent in a
	// pooled Pong, acquired only when something actually flows upward.
	up := n.sc.up[:0]
	for _, e := range entries {
		if e.Ref.IsZero() || e.Ref.Addr == n.Addr() {
			continue
		}
		// Shipped ages accumulate across hops; information already older
		// than the entry TTL is dead on arrival.
		age := e.AgeDuration()
		if age >= EntryTTL {
			continue
		}
		validated := now - age
		switch {
		case e.Flags&proto.FParent != 0 && fromParent:
			// Parent's parent: an ancestor for the superior node list. The
			// parent vouches for its own relations (acyclic chain), so the
			// entry's liveness follows the parent's.
			n.table.Superiors.Upsert(e.Ref, proto.FSuperior, validated, n.table.NextVersion(), rtable.Vouched)
		case e.Flags&proto.FSuperior != 0 && fromParent:
			// Ancestors propagate down the parent chain (Figure 2).
			n.table.Superiors.Upsert(e.Ref, proto.FSuperior, validated, n.table.NextVersion(), rtable.Vouched)
		case e.Flags&proto.FNeighbor != 0 && fromParent &&
			e.Level >= n.maxLevel+1 && e.Ref.MaxLevel >= n.maxLevel+1:
			// Parent's bus neighbours (at our parent level or above)
			// complete the superior node list; the parent's level-0 ring
			// ads stay out of it.
			n.table.Superiors.Upsert(e.Ref, proto.FSuperior, validated, n.table.NextVersion(), rtable.Vouched)
		case e.Flags&proto.FChild != 0 && fromBusNbr:
			// Children of direct neighbours (§III.c children table — only
			// nodes above level 0 maintain it); the neighbour vouches for
			// its own reporting children. Capped at 2·nc per held level so
			// neighbour turnover cannot accumulate history.
			set := &n.table.NbrChildren
			if set.Get(e.Ref.Addr) != nil || set.Len() < 2*int(n.maxChildren)*int(n.maxLevel) {
				set.Upsert(e.Ref, proto.FChild|proto.FIndirect, validated, n.table.NextVersion(), rtable.Vouched)
			}
		case e.Level == 0:
			// Indirect level-0 neighbours: keep the nearest few per side
			// (§III.c allows l0 up to n-1; a handful per side is enough to
			// bridge failure gaps while keeping the table near the paper's
			// sizes).
			if n.table.Level0.SideRank(n.cfg.ID, e.Ref.ID) < level0Span {
				n.table.Level0.Upsert(e.Ref, proto.FNeighbor|proto.FIndirect, validated, n.table.NextVersion(), rtable.Hearsay)
			}
		}
		// Independent of placement: learn level membership. Newly learned
		// upper-level members are forwarded to our own parent — §III.d:
		// a previously unknown parent entry "will be added and then
		// forwarded to its own parent. Such exchange prevents the network
		// from having two roots of the tree that are not connected."
		if n.noteRefAt(e.Ref, false, validated) && e.Ref.MaxLevel > 0 && hasParent &&
			from != parent.Addr && e.Ref.Addr != parent.Addr {
			if len(up) >= proto.MaxKeepAliveEntries {
				// Wire-safety clamp (see composeUpdate): the forward
				// must stay sendable over real UDP.
				continue
			}
			up = append(up, proto.Entry{
				Ref: e.Ref, Level: e.Ref.MaxLevel, Flags: proto.FNeighbor,
				Version: n.table.Version(), AgeDs: proto.AgeFrom(now, validated),
			})
		}
	}
	n.sc.up = up
	if len(up) > 0 {
		fwd := proto.Acquire(proto.TPong).(*proto.Pong)
		fwd.From = n.Ref()
		fwd.Entries = append(proto.EntryBuf(len(up)), up...)
		n.send(parent.Addr, fwd)
	}
	n.ensureHierarchy()
}

// level0Span is how many level-0 contacts a node retains per side. The
// ring survives level0Span consecutive failures without external help.
const level0Span = 4

// busSpan is how many same-level members a node retains per side on each
// bus; two suffice for the direct+indirect neighbour scheme of §III.c.
const busSpan = 2
