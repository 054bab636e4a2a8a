package core

import (
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// --- elections (§III.b) -------------------------------------------------------

// maybeStartElection triggers the §III.b election: "when a node reaches a
// degree of 2 and does not have a parent, it will search for a parent by
// contacting its neighbours". Each participant runs a countdown scaled
// inversely to its capability; the first to expire claims parenthood.
func (n *Node) maybeStartElection() {
	if !n.started || n.electionTimer != (Timer{}) {
		return
	}
	if _, ok := n.table.Parent(); ok {
		return
	}
	if n.maxLevel >= n.cfg.MaxHeight {
		return
	}
	if n.degreeAt(n.maxLevel) < 2 {
		return
	}
	// Cheap repair first: adopt a known member of the needed level.
	if n.adoptParent() {
		return
	}
	level := n.maxLevel + 1
	n.Stats.ElectionsStarted++
	l, r := n.busNeighbors(n.maxLevel)
	for _, nb := range []proto.NodeRef{l, r} {
		if !nb.IsZero() {
			call := proto.Acquire(proto.TElectionCall).(*proto.ElectionCall)
			call.From, call.Level = n.Ref(), level
			n.send(nb.Addr, call)
		}
	}
	n.startElectionCountdown(level)
}

func (n *Node) startElectionCountdown(level uint8) {
	if n.electionTimer != (Timer{}) {
		return
	}
	// Election races run on the STATIC profile, like demotion: capacity
	// decides who should hold hierarchy roles; load is redistributed at
	// the traffic layer (the DHT's hot-key fan-out), never by reshaping
	// the hierarchy. Folding live load into the countdown was tried:
	// the reshaped topologies looped ~1% of lookups to TTL death (255
	// hops of wandering each), inflating the very per-node load it was
	// meant to cap. DESIGN.md §13 has the full ledger of rejected
	// load→topology couplings.
	d := n.cfg.Profile.ElectionCountdown(electionMin, electionMax, n.env.Rand())
	n.electionTimer = n.env.SetTimer(d, func() {
		n.electionTimer = Timer{}
		n.electionExpired(level)
	})
}

// electionExpired is the countdown trigger: "when the countdown of a node
// reaches 0 and if no other node was elected during this time, it will
// signal to its neighbours that it is their new parent".
func (n *Node) electionExpired(level uint8) {
	if _, ok := n.table.Parent(); ok {
		return // someone else won and we adopted them
	}
	if level != n.maxLevel+1 || level > n.cfg.MaxHeight {
		return // stale countdown from before a level change
	}
	n.Stats.ElectionsWon++
	n.promoteSelf(level)
}

func (n *Node) handleElectionCall(from uint64, m *proto.ElectionCall) {
	n.noteRef(m.From, true)
	if m.Level != n.maxLevel+1 {
		return // different cohort
	}
	if p, ok := n.table.Parent(); ok {
		// Already parented: tell the caller about our parent so it can
		// adopt instead of electing, unless that parent is the caller (our
		// slot is stale): it would adopt itself.
		if p.Addr != m.From.Addr {
			n.send(from, &proto.ParentClaim{From: p, Level: m.Level, Region: proto.FromIDSpace(idspace.FullRegion())})
		}
		return
	}
	n.startElectionCountdown(m.Level)
}

// promoteSelf raises the node to the given level: it joins the level's bus,
// claims the tessellation it now owns, and looks for its own parent one
// level further up.
func (n *Node) promoteSelf(level uint8) {
	if level <= n.maxLevel || level > n.cfg.MaxHeight {
		return
	}
	n.maxLevel = level
	n.Stats.Promotions++

	// Join the bus: link towards the nearest known member.
	if best, _, ok := n.bestKnownMember(level, n.cfg.ID); ok && best.MaxLevel >= level {
		n.sendBusLinkReq(best.Addr, level)
	}

	// Claim children: announce to every known peer inside the region whose
	// parent level we now are.
	region := n.regionAt(level)
	claim := &proto.ParentClaim{From: n.Ref(), Level: level, Region: proto.FromIDSpace(region)}
	n.sc.refs = n.table.Candidates(n.sc.refs[:0])
	for _, c := range n.sc.refs {
		if c.Addr == n.Addr() || !region.Contains(c.ID) {
			continue
		}
		if c.MaxLevel+1 == level {
			n.send(c.Addr, claim)
		}
	}

	// Find our own parent at level+1.
	n.adoptParent()
	n.pushUpdates()
}

// adoptParent starts courting the nearest known member of level
// maxLevel+1: a child report goes out, and the slot is installed when the
// candidate answers (confirmCourtship). A silent candidate is purged after
// a short probation so repair does not stall on stale knowledge. It
// returns whether a parent exists or a courtship is in progress.
func (n *Node) adoptParent() bool {
	if _, ok := n.table.Parent(); ok {
		return true
	}
	if n.courting != 0 {
		return true
	}
	best, _, ok := n.bestKnownMember(n.maxLevel+1, n.cfg.ID)
	if !ok {
		return false
	}
	n.courtRef(best)
	return true
}

// courtRef probes ref as a prospective parent.
func (n *Node) courtRef(ref proto.NodeRef) {
	if ref.IsZero() || ref.Addr == n.Addr() {
		return
	}
	n.courtTimer.Cancel()
	n.courting = ref.Addr
	n.sendChildReport(ref.Addr)
	probation := electionMin
	if probation < 500*time.Millisecond {
		probation = 500 * time.Millisecond
	}
	if n.courtFire == nil {
		n.courtFire = n.courtExpired
	}
	n.courtTimer = n.env.SetTimer(3*probation, n.courtFire)
}

// courtExpired ends a courtship the candidate never answered: the
// candidate is gone; purge it and try the next one.
func (n *Node) courtExpired() {
	n.courtTimer = Timer{}
	dead := n.courting
	n.courting = 0
	if _, ok := n.table.Parent(); ok || dead == 0 {
		return
	}
	n.table.RemoveEverywhere(dead)
	n.adoptOrElect()
}

// confirmCourtship installs the courted parent once it has proven itself
// alive by any direct message.
func (n *Node) confirmCourtship(from uint64, ref proto.NodeRef) {
	if n.courting == 0 || n.courting != from {
		return
	}
	n.courting = 0
	n.courtTimer.Cancel()
	n.courtTimer = Timer{}
	if _, ok := n.table.Parent(); ok {
		return
	}
	if ref.MaxLevel < n.maxLevel+1 {
		// We were promoted while courting; this candidate can no longer be
		// our parent.
		return
	}
	n.table.SetParent(ref, n.env.Now())
	n.electionTimer.Cancel()
	n.electionTimer = Timer{}
}

// adoptOrElect is the parent-loss reaction: prefer the superior-node-list
// repair, fall back to an election.
func (n *Node) adoptOrElect() {
	if n.adoptParent() {
		return
	}
	n.maybeStartElection()
}

func (n *Node) handleParentClaim(from uint64, m *proto.ParentClaim) {
	if m.From.Addr == n.Addr() {
		return // a peer's stale parent slot, naming us: never our own parent
	}
	n.noteRef(m.From, true)
	region := m.Region.ToIDSpace()
	if m.Level == n.maxLevel+1 && region.Contains(n.cfg.ID) {
		cur, has := n.table.Parent()
		if !has || distTo(m.From.ID, n.cfg.ID) < distTo(cur.ID, n.cfg.ID) {
			n.table.SetParent(m.From, n.env.Now())
			n.electionTimer.Cancel()
			n.electionTimer = Timer{}
			n.sendChildReport(m.From.Addr)
		}
		return
	}
	if m.Level <= n.maxLevel {
		// A peer on one of our buses; link up if it is now a direct
		// neighbour.
		n.table.BusLevel(m.Level).Upsert(m.From, proto.FNeighbor, n.env.Now(), n.table.NextVersion(), rtable.Direct)
		l, r := n.busNeighbors(m.Level)
		if l.Addr == m.From.Addr || r.Addr == m.From.Addr {
			n.sendBusLinkReq(m.From.Addr, m.Level)
		}
	}
}

// --- parent/child maintenance (§III.a) ----------------------------------------

func (n *Node) handleChildReport(from uint64, m *proto.ChildReport) {
	child := m.From
	n.noteRef(child, true)
	needLevel := child.MaxLevel + 1

	// Above our station: we cannot be this child's parent at all. Even
	// here the redirect target must be strictly closer to the child than
	// we are — redirect chains must monotonically decrease that distance
	// or stale level knowledge lets them cycle at network speed.
	if needLevel > n.maxLevel {
		if best, seen, ok := n.bestKnownMember(needLevel, child.ID); ok &&
			best.Addr != n.Addr() && best.Addr != from &&
			distTo(best.ID, child.ID) < distTo(n.cfg.ID, child.ID) {
			n.sendReparent(from, best, proto.AgeFrom(n.env.Now(), seen))
			return
		}
		// No redirect available: refuse explicitly (zero NewParent) so the
		// child stops courting us — its knowledge of our level is stale,
		// and silence would leave it re-courting forever.
		n.sendReparent(from, proto.NodeRef{}, 0)
		return
	}

	// Tessellation ownership, decided by a globally consistent rule:
	// redirect only to a member STRICTLY closer to the child than we are.
	// Strictness matters — two parents evaluating region membership from
	// different partial bus views would bounce a boundary child between
	// each other forever; a shared distance comparison cannot cycle.
	if best, seen, ok := n.bestKnownMember(needLevel, child.ID); ok && best.Addr != from {
		if distTo(best.ID, child.ID) < distTo(n.cfg.ID, child.ID) {
			n.sendReparent(from, best, proto.AgeFrom(n.env.Now(), seen))
			return
		}
	}

	n.table.Children.Upsert(child, proto.FChild, n.env.Now(), n.table.NextVersion(), rtable.Direct)
	n.maybeCancelDemotion()

	// Ack so children learn our ancestors and bus neighbours (their
	// superior node lists) and keep that knowledge fresh.
	ack := proto.Acquire(proto.TPong).(*proto.Pong)
	ack.From = n.Ref()
	ack.Entries = n.composeUpdate(from, true)
	n.send(from, ack)

	n.maybeSplit()
}

func (n *Node) handleReparent(from uint64, m *proto.Reparent) {
	// A refusal from a node we were courting: remember it so the
	// candidate search stops offering it, then try the next option.
	if m.NewParent.IsZero() && n.courting == from {
		n.markRefused(from)
		n.courting = 0
		n.courtTimer.Cancel()
		n.courtTimer = Timer{}
		n.adoptOrElect()
		return
	}
	cur, has := n.table.Parent()
	if has && cur.Addr != from {
		return // only the current parent may move us
	}
	if m.NewParent.IsZero() || m.NewParent.Addr == n.Addr() {
		n.table.ClearParent()
		n.ensureHierarchy()
		return
	}
	// A redirect based on knowledge as old as the entry TTL is noise; a
	// cluster of confused nodes must not re-mint freshness for a dead
	// node by redirecting each other to it.
	age := time.Duration(m.AgeDs) * 100 * time.Millisecond
	if age >= EntryTTL {
		n.ensureHierarchy()
		return
	}
	// The hand-off target is hearsay until it answers: court it.
	n.table.ClearParent()
	n.noteRefAt(m.NewParent, false, n.env.Now()-age)
	n.courtRef(m.NewParent)
}

// maybeSplit performs the B+tree-style split: when one level of the
// children table exceeds nc, the strongest child of that level is promoted
// one level and takes over the half of the tessellation around it ("A
// parent is also responsible for promoting a child to its level of the
// hierarchy"). The children at level l−1 are this node's level-l cell, so
// nc bounds each level's count, not the table's: counted together, every
// node above level 1 is over nc from the bulk build on and promotes for
// ever (DESIGN.md §2, "A tree that comes to rest"). A cooldown keeps the
// parent from re-issuing grants faster than a promotee can accept and the
// moved children can re-home.
func (n *Node) maybeSplit() {
	children := &n.table.Children
	if children.Len() <= int(n.maxChildren) {
		return
	}
	now := n.env.Now()
	if n.lastSplit != 0 && now-n.lastSplit < 2*childReport {
		return
	}
	// The lowest over-full level with a child to promote splits. Strongest
	// child wins promotion (§III.a: promotion criteria are the node
	// characteristics). Only children heard from directly within the TTL
	// qualify: promoting a child that stopped reporting upserts it below
	// as a direct-fresh bus member with a current timestamp, and if it is
	// actually dead that single false entry re-advertises through the
	// delta gossip and resurrects the dead node across the whole
	// neighbourhood — every lookup routed at its coordinate black-holes
	// until the false entry ages out again.
	var best proto.NodeRef
	found := false
	for lvl := uint8(1); lvl <= n.maxLevel && lvl <= n.cfg.MaxHeight && !found; lvl++ {
		count := 0
		for i := range children.Len() {
			r, e := children.At(i)
			if r.MaxLevel+1 != lvl {
				continue
			}
			count++
			if e.DirectFresh(now, EntryTTL) && (!found || r.Score > best.Score || (r.Score == best.Score && r.ID < best.ID)) {
				best, found = r, true
			}
		}
		found = found && count > int(n.maxChildren)
	}
	if !found {
		return
	}
	newLvl := best.MaxLevel + 1
	n.Stats.Splits++
	n.lastSplit = now

	// The promotee's bus neighbours at its new level: the members flanking
	// it in our view (including ourselves when we are a member).
	members := n.busMembersWithSelf(newLvl)
	var left, right proto.NodeRef
	for _, mref := range members {
		if mref.ID < best.ID && mref.Addr != best.Addr {
			left = mref
		}
		if mref.ID > best.ID && right.IsZero() && mref.Addr != best.Addr {
			right = mref
		}
	}
	region := n.cellAround(members, best)
	grant := proto.Acquire(proto.TPromoteGrant).(*proto.PromoteGrant)
	grant.From, grant.Level, grant.Region = n.Ref(), newLvl, proto.FromIDSpace(region)
	grant.Left, grant.Right = left, right
	n.send(best.Addr, grant)

	// Re-home the children that fall into the promotee's new cell. The
	// list is copied out of the set: the loop below removes from it.
	promoted := best
	promoted.MaxLevel = newLvl
	moved := n.sc.peers[:0]
	for i := range children.Len() {
		r, _ := children.At(i)
		if r.Addr == best.Addr {
			continue
		}
		if r.MaxLevel+1 == newLvl && region.Contains(r.ID) {
			moved = append(moved, r)
		}
	}
	n.sc.peers = moved
	for _, r := range moved {
		n.sendReparent(r.Addr, promoted, 0)
		n.table.Children.Remove(r.Addr)
	}
	// The promotee stops being a child when it reaches our own level.
	if newLvl >= n.maxLevel {
		n.table.Children.Remove(best.Addr)
	}
	n.table.BusLevel(newLvl).Upsert(promoted, proto.FNeighbor, n.env.Now(), n.table.NextVersion(), rtable.Direct)
	n.pushUpdates()
	n.maybeStartDemotion()
}

// cellAround computes the tessellation cell ref will own among the sorted
// member list once inserted (ref is being promoted into the level, so it is
// not a member yet). Used to scope a promotion grant.
func (n *Node) cellAround(members []proto.NodeRef, ref proto.NodeRef) idspace.Region {
	ids := n.sc.ids[:0]
	for _, m := range members {
		if m.Addr == ref.Addr {
			continue
		}
		ids = append(ids, m.ID)
	}
	pos := 0
	for pos < len(ids) && ids[pos] < ref.ID {
		pos++
	}
	ids = append(ids, 0)
	copy(ids[pos+1:], ids[pos:])
	ids[pos] = ref.ID
	n.sc.ids = ids
	return idspace.FullRegion().CellOf(ids, pos)
}

func (n *Node) handlePromoteGrant(from uint64, m *proto.PromoteGrant) {
	p, has := n.table.Parent()
	if !has || p.Addr != from {
		return // only our parent promotes us
	}
	if m.Level != n.maxLevel+1 || m.Level > n.cfg.MaxHeight {
		return
	}
	now := n.env.Now()
	for _, nb := range []proto.NodeRef{m.Left, m.Right} {
		if nb.IsZero() || nb.Addr == n.Addr() || n.claimCap(nb.Addr, nb.MaxLevel) < m.Level {
			continue
		}
		n.table.BusLevel(m.Level).Upsert(nb, proto.FNeighbor, now, n.table.NextVersion(), rtable.Hearsay)
	}
	n.maxLevel = m.Level
	n.Stats.Promotions++
	// Link into the bus and announce the claimed tessellation.
	l, r := n.busNeighbors(m.Level)
	for _, nb := range []proto.NodeRef{l, r} {
		if !nb.IsZero() {
			n.sendBusLinkReq(nb.Addr, m.Level)
		}
	}
	claim := &proto.ParentClaim{From: n.Ref(), Level: m.Level, Region: m.Region}
	region := m.Region.ToIDSpace()
	n.sc.refs = n.table.Candidates(n.sc.refs[:0])
	for _, c := range n.sc.refs {
		if c.Addr == n.Addr() || c.Addr == from || !region.Contains(c.ID) {
			continue
		}
		if c.MaxLevel+1 == m.Level {
			n.send(c.Addr, claim)
		}
	}
	// Our parent may still cover us at the new level + 1; re-report so it
	// refreshes our level, or get redirected to the right member.
	n.sendChildReport(from)
	n.pushUpdates()
}

// --- demotion (§III.b) ----------------------------------------------------------

// maybeStartDemotion arms the reverse countdown: "if a parent has less than
// two children, it will start a countdown ... the higher the characteristic
// the longer the countdown".
func (n *Node) maybeStartDemotion() {
	if !n.started || n.demotionTimer != (Timer{}) || n.maxLevel == 0 {
		return
	}
	if n.table.Children.Len() >= 2 {
		return
	}
	// Demotion runs on the STATIC profile, like elections: a funnel
	// node's message load is positional — whoever holds the level
	// inherits it — so load-accelerated demotion just moves the hotspot
	// to the next victim and thrashes elections (DESIGN.md §13).
	n.demotionTimer = n.env.SetTimer(n.cfg.Profile.DemotionCountdown(demotionMin, demotionMax), func() {
		n.demotionTimer = Timer{}
		n.demotionExpired()
	})
}

func (n *Node) maybeCancelDemotion() {
	if n.table.Children.Len() >= 2 {
		n.demotionTimer.Cancel()
		n.demotionTimer = Timer{}
	}
}

// demotionExpired demotes the node one level: "at the end of the countdown,
// if it still has less than two children it will leave its current level".
func (n *Node) demotionExpired() {
	if n.maxLevel == 0 || n.table.Children.Len() >= 2 {
		return
	}
	oldLvl := n.maxLevel
	left, right := n.busNeighbors(oldLvl)
	successor := left
	if successor.IsZero() || (!right.IsZero() && distTo(right.ID, n.cfg.ID) < distTo(left.ID, n.cfg.ID)) {
		successor = right
	}

	// Tell the bus and hand children to the successor.
	for _, nb := range []proto.NodeRef{left, right} {
		if !nb.IsZero() {
			d := proto.Acquire(proto.TDemote).(*proto.Demote)
			d.From, d.Level, d.Successor = n.Ref(), oldLvl, successor
			n.send(nb.Addr, d)
		}
	}
	for i := range n.table.Children.Len() {
		c, _ := n.table.Children.At(i)
		n.sendReparent(c.Addr, successor, 0)
	}

	n.maxLevel = oldLvl - 1
	n.Stats.Demotions++
	n.table.DropLevel(oldLvl)

	// Our own parent requirement dropped a level; the old parent is still
	// a member of the lower level's bus, but the successor may be nearer.
	if !successor.IsZero() {
		n.table.ClearParent()
		n.courtRef(successor)
	}
	n.pushUpdates()
	// Cascade: we may now be under-filled at the lower level too.
	n.maybeStartDemotion()
}

func (n *Node) handleDemote(from uint64, m *proto.Demote) {
	demoted := m.From
	demoted.MaxLevel = m.Level - 1
	// Remove the node from the vacated level, keep it at the one below.
	if s := n.table.BusAt(m.Level); s != nil {
		s.Remove(from)
	}
	if m.Level-1 > 0 {
		n.table.BusLevel(m.Level-1).Upsert(demoted, proto.FNeighbor, n.env.Now(), n.table.NextVersion(), rtable.Direct)
	}
	if p, ok := n.table.Parent(); ok && p.Addr == from {
		n.table.ClearParent()
		if !m.Successor.IsZero() && m.Successor.Addr != n.Addr() {
			n.courtRef(m.Successor)
		} else {
			n.ensureHierarchy()
		}
	}
	// Bus repair towards the successor.
	if !m.Successor.IsZero() && m.Successor.Addr != n.Addr() && m.Level <= n.maxLevel {
		n.sendBusLinkReq(m.Successor.Addr, m.Level)
	}
}

// --- bus linking ----------------------------------------------------------------

func (n *Node) handleBusLinkReq(from uint64, m *proto.BusLinkReq) {
	n.noteRef(m.From, true)
	lvl := m.Level
	if lvl == 0 || lvl > n.cfg.MaxHeight {
		return
	}
	now := n.env.Now()
	s := n.table.BusLevel(lvl)
	s.Upsert(m.From, proto.FNeighbor, now, n.table.NextVersion(), rtable.Direct)
	// Answer with the members flanking the requester in our view — but
	// only members with fresh direct contact. The ack receiver files these
	// as current knowledge, so handing out a member we merely heard about
	// re-mints freshness for it; if that member is dead, every bus-link
	// exchange re-seeds it into the neighbourhood's tables and the delta
	// gossip keeps it alive forever (routing trusts every entry).
	members := n.busMembersWithSelf(lvl)
	var left, right proto.NodeRef
	for _, mref := range members {
		if mref.Addr == m.From.Addr {
			continue
		}
		if mref.Addr != n.Addr() {
			if e := s.Get(mref.Addr); e == nil || !e.DirectFresh(now, EntryTTL) {
				continue
			}
		}
		if mref.ID <= m.From.ID {
			left = mref
		} else if right.IsZero() {
			right = mref
		}
	}
	ack := proto.Acquire(proto.TBusLinkAck).(*proto.BusLinkAck)
	ack.From, ack.Level, ack.Left, ack.Right = n.Ref(), lvl, left, right
	n.send(from, ack)
}

func (n *Node) handleBusLinkAck(from uint64, m *proto.BusLinkAck) {
	now := n.env.Now()
	if m.Level == 0 || m.Level > n.maxLevel+1 {
		return
	}
	n.table.BusLevel(m.Level).Upsert(m.From, proto.FNeighbor, now, n.table.NextVersion(), rtable.Direct)
	for _, nb := range []proto.NodeRef{m.Left, m.Right} {
		if nb.IsZero() || nb.Addr == n.Addr() || n.claimCap(nb.Addr, nb.MaxLevel) < m.Level {
			continue
		}
		n.table.BusLevel(m.Level).Upsert(nb, proto.FNeighbor, now, n.table.NextVersion(), rtable.Hearsay)
	}
}
