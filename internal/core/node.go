package core

import (
	"fmt"
	"math"
	"sort"
	"time"
	"unsafe"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// Node is one TreeP peer: the protocol state machine of §III. All methods
// must be called from the node's single logical event loop (see package
// comment).
type Node struct {
	cfg Config
	env Env

	// maxLevel is the node's top hierarchy level; the node is a member of
	// every level 0..maxLevel.
	maxLevel uint8
	// started and joining sit in padding, which keeps Node in its size
	// class (TestNodeFitsItsSizeClass), as do the rejoin cursors: recentIdx
	// is where the recent ring is written next, recentScan and bootScan
	// rotate the fallback target through recentPeers and bootCache. joining
	// is set by Join and cleared by the first JoinAccept: until then an
	// empty table is no dead end (LookupCarrying).
	started, joining                bool
	recentIdx, recentScan, bootScan uint8
	// maxChildren is nc under the configured child policy.
	maxChildren uint16
	// score caches the capability score of the profile.
	score float64

	table *rtable.Table

	// peers is the per-peer protocol state (delta-sync cursor, fresh level
	// claim, courtship refusal) by address, one table for every concern:
	// median 10 states, 53 at most on a loaded overlay (DESIGN.md §16). Only
	// a write (peerFor) creates a state; readers take absence for the zero
	// state.
	peers idspace.Keyed[uint64, peerState]
	// curNew is the in-flight message's sender when it was NOT direct-fresh
	// in Level0 before this message arrived, else 0. It must be computed up
	// front in HandleMessage: the Touch below advances LastDirect, so by the
	// time a handler runs, the entry always looks fresh. ringUpsert reads it
	// to detect genuinely new ring contacts — the trigger for the merge-zip
	// introductions (repair.go).
	curNew  uint64
	pingSeq uint32

	// Election/demotion countdowns (§III.b). One of each at a time.
	electionTimer Timer
	demotionTimer Timer

	// courting is the address of a prospective parent that has been sent a
	// child report but has not yet answered; the slot is only installed on
	// the candidate's direct reply, so a dead candidate costs one short
	// probation instead of a full entry TTL. courtFire is courtExpired,
	// bound on the first courtship and reused by every later one.
	courting   uint64
	courtTimer Timer
	courtFire  func()

	// lastSplit rate-limits promotion grants (see maybeSplit).
	lastSplit time.Duration

	// Periodic timers.
	keepaliveTimer Timer
	sweepTimer     Timer
	reportTimer    Timer

	// sc is the event loop's scratch (env.Scratch(), cached): the buffers
	// of the per-message composition hot path, which keep the
	// keep-alive/delta path allocation-free except for the entry slice
	// that escapes into each outgoing message.
	sc *Scratch

	// Origin-side lookup bookkeeping.
	pending   idspace.Keyed[uint64, *pendingLookup]
	nextReqID uint64

	// Lookup failover (failover.go): the hold table and exclusion list,
	// pooled and held only while in use, and the node-wide round-trip
	// estimate that times them and the origin's re-issues. The last
	// keep-alive round's pings are the rttPings sequence numbers from
	// rttFirst on, all sent at rttSentAt; a pong echoing one is a sample.
	fo                 *failover
	srtt, rttvar       time.Duration
	rttFirst, rttPings uint32
	rttSentAt          time.Duration

	// Stats counts protocol events; the experiment harness reads it.
	Stats Stats

	// extension receives messages the core protocol does not handle: the
	// DHT's, and the requests lookups carry to their owner.
	extension func(from uint64, msg proto.Message)

	// Ring self-healing state (repair.go): per-side probe pacing and
	// empty-slot age tracking. Index 0 is the left side (IDs below ours).
	lastProbe       [2]time.Duration
	sideEmptySince  [2]time.Duration
	lastAnchorHello time.Duration

	// firstPing defers the first-contact greeting ping (ringUpsert) to
	// the end of the in-flight HandleMessage: sent inline it would ship
	// the routing delta before the handler composes its reply, leaving
	// the reply — the exchange the peer is actually waiting on — empty.
	firstPing uint64

	// ringHook fires when the node gains a new direct level-0 contact
	// (see SetRingChangeHook).
	ringHook func()

	// recentPeers rings the addresses this node most recently heard from
	// for the first time (or again after an expiry). It is the first
	// rejoin fallback: the static anchors can all die under sustained
	// churn, and a node whose table has fully drained would otherwise
	// retry dead rendezvous addresses forever (maintenance.go,
	// contactAnchor).
	recentPeers [recentPeerSlots]uint64

	// bootCache is the second, longer-memory rejoin fallback. The recent
	// ring is recency-biased: a node at the centre of a dying
	// neighbourhood spends its last healthy minutes talking only to peers
	// that are about to die with it, so by the time its table drains the
	// whole ring can point at corpses (and so can every static anchor).
	// The cache instead keeps one slot per address-hash bucket, touched
	// on every first contact over the node's lifetime — hierarchy and bus
	// traffic cross the entire ID space, so the buckets hold a spread of
	// addresses uniform over history, of which a decent fraction
	// survives any churn wave. Hash-slotting rather than reservoir
	// sampling keeps the choice deterministic and free of RNG draws.
	bootCache [bootCacheSlots]uint64
}

// recentPeerSlots sizes the recent-peers ring. Sixteen distinct senders
// span well past one churn wave, so at least one slot points at a
// survivor with overwhelming probability.
const recentPeerSlots = 16

// bootCacheSlots sizes the bootstrap cache. Thirty-two buckets over a
// lifetime of first contacts keeps several live addresses through even a
// churn wave that replaces half the overlay.
const bootCacheSlots = 32

// bootSlot buckets an address (Fibonacci hash, top bits).
func bootSlot(addr uint64) int {
	return int(addr * 0x9E3779B97F4A7C15 >> 59)
}

// SetRingChangeHook registers a callback fired whenever the node gains a
// new direct level-0 contact — a repaired gap, a merged partition, a
// fresh neighbour. Layered services use it to reconcile state that
// depends on ring adjacency: the DHT re-runs ownership handoff and
// replica placement immediately instead of waiting out its maintenance
// interval. One hook per node; services compose by chaining.
func (n *Node) SetRingChangeHook(fn func()) { n.ringHook = fn }

func (n *Node) ringChanged() {
	if n.ringHook != nil {
		n.ringHook()
	}
}

// SetExtension installs the handler for non-core messages (the DHT's),
// replacing the one installed before: a node has one extension. Stop calls
// it once more, with a nil message: the node's lookups ended without a
// report, and the extension frees what it holds for calls that can no
// longer be answered.
func (n *Node) SetExtension(fn func(from uint64, msg proto.Message)) { n.extension = fn }

// Send exposes best-effort sending to layered services.
func (n *Node) Send(to uint64, msg proto.Message) { n.send(to, msg) }

// SetTimer exposes the runtime timer to layered services.
func (n *Node) SetTimer(d time.Duration, fn func()) Timer { return n.env.SetTimer(d, fn) }

// SetPeriodic exposes the runtime's recurring timer to layered services.
func (n *Node) SetPeriodic(d time.Duration, fn func()) Timer { return n.env.SetPeriodic(d, fn) }

// Now exposes the runtime clock to layered services.
func (n *Node) Now() time.Duration { return n.env.Now() }

// peerState is everything the node tracks about one peer outside the
// routing table:
//
//   - LastSent: the table version already shipped to the peer — the
//     "exchange only out-of-date data" delta cursor of §III.d;
//   - the peer's fresh self-claimed level. Hearsay cannot raise a peer's
//     believed membership above its own fresh claim: without this, stale
//     bus refs circulate in keep-alive advertisements between third
//     parties faster than direct contact corrects them, and a demoted
//     peer stays a phantom member of its old level forever;
//   - a refusal mark for peers that explicitly declined to parent us
//     (usually because our knowledge of their level was stale), so the
//     candidate search skips them for a TTL instead of re-courting in a
//     livelock.
//
// The states lie by value in the peers slab, 32 bytes each: the instants
// first, the small fields sharing the last word. The field names are
// exported for the slab's symbol alone: an instantiation is named after the
// struct, package path of every unexported field included, and the
// benchmark's CPU ledger splits a symbol at its last slash.
type peerState struct {
	LastSentAt time.Duration
	ClaimAt    time.Duration
	RefusedAt  time.Duration
	LastSent   uint32
	ClaimLevel uint8
	HasClaim   bool
	Refused    bool
}

// peerFor returns the peer-state entry for addr, creating it on first use:
// for writers of a claim, refusal or delta cursor only. The pointer is
// valid until the next state is created or dropped.
func (n *Node) peerFor(addr uint64) *peerState {
	if ps := n.peers.Find(addr); ps != nil {
		return ps
	}
	return n.peers.Put(addr, peerState{})
}

// markRefused records an explicit parenting refusal from addr.
func (n *Node) markRefused(addr uint64) {
	ps := n.peerFor(addr)
	ps.Refused, ps.RefusedAt = true, n.env.Now()
}

// pendingLookup is a lookup that has left its origin and not come back:
// what to tell the caller, what to send again, and the one timer (with
// its callback, bound once) that does both. Records come from lookupPool
// and go back to it when the lookup completes; the id checks of
// completeLookup and onTimer, and the generation check of the timer
// handle, keep a late reply or a cancelled timer of one lookup away from
// the next lookup to hold the record.
type pendingLookup struct {
	node    *Node
	cb      func(LookupResult)
	timer   Timer
	fire    func()
	target  idspace.ID
	reqID   uint64
	algo    proto.Algo
	carried proto.SvcMessage // the caller's, read for each re-issue
	started time.Duration
	// rto is the wait before the next re-issue; it doubles each time.
	rto time.Duration
}

// NewNode constructs a node; it does not touch the network until Start or
// Join is called.
func NewNode(cfg Config, env Env) *Node {
	cfg = cfg.withDefaults()
	sc := env.Scratch()
	n := &Node{
		cfg:    cfg,
		env:    env,
		sc:     sc,
		score:  cfg.Profile.Score(),
		table:  rtable.NewWith(&sc.sweep),
		srtt:   rttPrior,
		rttvar: rttPrior / 2,
	}
	n.maxChildren = uint16(min(max(cfg.ChildPolicy.MaxChildren(cfg.Profile), 2), math.MaxUint16))
	return n
}

// Ref returns the node's current wire identity.
func (n *Node) Ref() proto.NodeRef {
	return proto.NodeRef{
		ID:       n.cfg.ID,
		Addr:     n.env.Addr(),
		MaxLevel: n.maxLevel,
		Score:    proto.QuantizeScore(n.score),
	}
}

// ID returns the node's coordinate.
func (n *Node) ID() idspace.ID { return n.cfg.ID }

// Addr returns the node's transport address.
func (n *Node) Addr() uint64 { return n.env.Addr() }

// MaxLevel returns the node's top hierarchy level.
func (n *Node) MaxLevel() uint8 { return n.maxLevel }

// Score returns the capability score.
func (n *Node) Score() float64 { return n.score }

// MaxChildren returns nc for this node under the configured policy.
func (n *Node) MaxChildren() int { return int(n.maxChildren) }

// Mem is the heap one node holds, in bytes (the loop's Scratch is not the
// node's): its table, the struct in its size class with its anchor list,
// the peers and pending slabs with the lookups in flight, and the failover
// record while the node holds one.
type Mem struct {
	Table             rtable.Mem
	Node, Peers, Hold int
}

// MemBytes reports the heap the node holds.
func (n *Node) MemBytes() Mem {
	m := Mem{
		Table: n.table.MemBytes(),
		Node:  nodeClass + cap(n.cfg.Anchors)*8,
		Peers: n.peers.MemBytes() + n.pending.MemBytes() + n.pending.Len()*int(unsafe.Sizeof(pendingLookup{})),
	}
	if n.fo != nil {
		// The record's size class, its bound fire, and each held copy in
		// its class (the requests those carry aside; hedged slots hold none).
		m.Hold = 240 + 16
		for i := range n.fo.slots {
			if n.fo.slots[i].req != nil {
				m.Hold += 96
			}
		}
	}
	if n.courtFire != nil {
		m.Node += 16 // the bound method: code pointer and receiver
	}
	return m
}

// nodeClass is the allocator size class a Node takes, malloc header
// included (TestNodeFitsItsSizeClass).
const nodeClass = 1280

// Table exposes the routing table for analysis (AN-2 measures its size
// against the §III.e formulas). Callers must not mutate it.
func (n *Node) Table() *rtable.Table { return n.table }

// Config returns the node's effective configuration.
func (n *Node) Config() Config { return n.cfg }

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("node(%s lvl%d)", n.cfg.ID, n.maxLevel)
}

// Start arms the periodic maintenance timers. Idempotent.
func (n *Node) Start() {
	if n.started {
		return
	}
	n.started = true
	n.armKeepalive()
	n.armSweep()
	n.armReport()
}

// Stop cancels all timers (node shutdown) and ends the lookups in flight
// without answering them; the extension hears of it last. In-flight messages
// addressed to the node are the runtime's concern.
func (n *Node) Stop() {
	n.started = false
	for _, t := range [...]Timer{n.keepaliveTimer, n.sweepTimer, n.reportTimer, n.electionTimer, n.demotionTimer, n.courtTimer} {
		t.Cancel()
	}
	n.electionTimer, n.demotionTimer, n.courtTimer = Timer{}, Timer{}, Timer{}
	n.courting = 0
	for _, id := range n.pending.Keys() {
		pl, _ := n.pending.Get(id)
		pl.timer.Cancel()
		pl.release()
	}
	n.pending = idspace.Keyed[uint64, *pendingLookup]{}
	n.stopFailover()
	if n.extension != nil {
		n.extension(0, nil)
	}
}

// Join bootstraps the node into an existing overlay through any live peer
// (§III.a: "the joining peers are assigned to the lowest [level]").
func (n *Node) Join(bootstrap uint64) {
	n.Start()
	n.joining = true
	n.sendJoinRequest(bootstrap)
}

// Depart is the graceful shutdown: it announces the departure to every
// peer holding a load-bearing reference to this node — active-connection
// neighbours, children, the parent — so they repair immediately instead of
// waiting out a failure-detection round, then stops the node. The
// announcement is best-effort datagrams; peers that miss it fall back to
// the TTL path exactly as for a crash.
func (n *Node) Depart() {
	ref := n.Ref()
	msg := proto.Leave{From: ref}
	// Snapshot the recipient set first: activePeers and Refs share scratch
	// buffers that must not be re-entered while sending.
	targets := make([]uint64, 0, 16)
	add := func(addr uint64) {
		if addr == 0 || addr == n.Addr() {
			return
		}
		for _, a := range targets {
			if a == addr {
				return
			}
		}
		targets = append(targets, addr)
	}
	for _, p := range n.activePeers() {
		add(p.Addr)
	}
	for i := range n.table.Children.Len() {
		c, _ := n.table.Children.At(i)
		add(c.Addr)
	}
	if p, ok := n.table.Parent(); ok {
		add(p.Addr)
	}
	for _, a := range targets {
		n.Stats.LeavesSent++
		n.send(a, &msg)
	}
	n.Stop()
}

// handleLeave reacts to a peer's graceful departure: the sender is purged
// from every table on the spot (its information is first-hand and final),
// and the structures it held together are repaired immediately.
func (n *Node) handleLeave(from uint64, m *proto.Leave) {
	wasChild := n.table.Children.Get(from) != nil
	removed, parentLost := n.table.RemoveEverywhere(from)
	// Forget it as a rejoin fallback too: a departed node may keep
	// answering datagrams while its process drains, and one JoinRequest
	// from the dark-table path would re-file it as a live peer.
	for i := range n.recentPeers {
		if n.recentPeers[i] == from {
			n.recentPeers[i] = 0
		}
	}
	if n.bootCache[bootSlot(from)] == from {
		n.bootCache[bootSlot(from)] = 0
	}
	n.peers.Delete(from)
	if n.courting == from {
		n.courting = 0
		n.courtTimer.Cancel()
		n.courtTimer = Timer{}
	}
	if !removed && !parentLost {
		return
	}
	n.Stats.LeavesRecv++
	// Mirror the sweep-time repairs, without waiting for the next sweep:
	// re-greet the surviving ring neighbours so the gap closes, re-adopt or
	// elect if the parent left, and start the demotion countdown if a child
	// did.
	l, r := n.table.Level0.Neighbors(n.cfg.ID)
	for _, nb := range [2]proto.NodeRef{l, r} {
		if !nb.IsZero() {
			n.sendHello(nb.Addr)
		}
	}
	if parentLost {
		n.adoptOrElect()
	}
	if wasChild {
		n.maybeStartDemotion()
	}
	n.ensureHierarchy()
}

// HandleMessage dispatches one received datagram. Unknown message types are
// ignored (wire compatibility).
func (n *Node) HandleMessage(from uint64, msg proto.Message) {
	n.Stats.MsgsIn++
	defer func() {
		n.curNew = 0
		if p := n.firstPing; p != 0 {
			n.firstPing = 0
			n.sendPing(p)
		}
	}()
	// Record whether the sender was a fresh direct ring contact BEFORE the
	// Touch below refreshes its timestamps; handlers cannot recover this
	// afterwards, and ringUpsert keys the merge-zip trigger on it.
	if e := n.table.Level0.Get(from); e == nil || !e.DirectFresh(n.env.Now(), EntryTTL) {
		n.curNew = from
		if last := (n.recentIdx + recentPeerSlots - 1) % recentPeerSlots; n.recentPeers[last] != from {
			n.recentPeers[n.recentIdx] = from
			n.recentIdx = (n.recentIdx + 1) % recentPeerSlots
		}
		n.bootCache[bootSlot(from)] = from
	}
	// Any authenticated-by-arrival communication refreshes the sender's
	// timestamps (§III.c) — and is the sign of life a held lookup forward
	// is waiting for.
	n.table.Touch(from, n.env.Now())
	n.heardFrom(from)
	// The sender's self-identification is first-hand: bus membership it no
	// longer claims is stale knowledge, dropped on the spot and barred
	// from hearsay re-introduction while the claim stays fresh.
	ref := msg.Sender()
	vouched := !ref.IsZero() && ref.Addr == from
	if vouched {
		ps := n.peerFor(from)
		ps.ClaimLevel, ps.HasClaim, ps.ClaimAt = ref.MaxLevel, true, n.env.Now()
		n.table.DowngradeLevels(from, ref.MaxLevel)
	}
	// A courted parent proves itself alive with any direct message —
	// except one that explicitly declines the role (Reparent, Demote) or
	// leaves altogether, which its own handler processes.
	if n.courting == from {
		switch msg.(type) {
		case *proto.Reparent, *proto.Demote, *proto.Leave:
		default:
			if vouched {
				n.confirmCourtship(from, ref)
			}
		}
	}

	switch m := msg.(type) {
	case *proto.Hello:
		n.handleHello(from, m)
	case *proto.Ping:
		n.handlePing(from, m)
	case *proto.Pong:
		n.handlePong(from, m)
	case *proto.JoinRequest:
		n.handleJoinRequest(from, m)
	case *proto.JoinRedirect:
		n.handleJoinRedirect(from, m)
	case *proto.JoinAccept:
		n.handleJoinAccept(from, m)
	case *proto.ElectionCall:
		n.handleElectionCall(from, m)
	case *proto.ParentClaim:
		n.handleParentClaim(from, m)
	case *proto.ChildReport:
		n.handleChildReport(from, m)
	case *proto.PromoteGrant:
		n.handlePromoteGrant(from, m)
	case *proto.Demote:
		n.handleDemote(from, m)
	case *proto.Reparent:
		n.handleReparent(from, m)
	case *proto.BusLinkReq:
		n.handleBusLinkReq(from, m)
	case *proto.BusLinkAck:
		n.handleBusLinkAck(from, m)
	case *proto.LookupRequest:
		n.handleLookupRequest(from, m)
	case *proto.LookupReply:
		n.handleLookupReply(from, m)
	case *proto.Leave:
		n.handleLeave(from, m)
	case *proto.RingProbe:
		n.handleRingProbe(from, m)
	case *proto.RingProbeAck:
		n.handleRingProbeAck(from, m)
	case *proto.MergeIntro:
		n.handleMergeIntro(from, m)
	default:
		if n.extension != nil {
			n.extension(from, msg)
		}
	}
}

// send transmits a message and counts it. A message with no one to go to
// goes back to its pool.
func (n *Node) send(to uint64, msg proto.Message) {
	if to == 0 || to == n.Addr() {
		proto.ReleaseDecoded(msg)
		return
	}
	n.Stats.MsgsOut++
	n.env.Send(to, msg)
}

// --- derived hierarchy state ------------------------------------------------

// degreeAt returns the node's degree at the given level: the number of
// same-level connections (level-0 table below, bus table above). §III.b
// triggers elections at degree ≥ 2.
func (n *Node) degreeAt(level uint8) int {
	if level == 0 {
		return n.table.Level0.Len()
	}
	if s := n.table.BusAt(level); s != nil {
		return s.Len()
	}
	return 0
}

// busMembersWithSelf returns the node's view of the level members,
// including itself, sorted by ID. The slice is a shared scratch buffer:
// callers must not retain it across another call into the node.
func (n *Node) busMembersWithSelf(level uint8) []proto.NodeRef {
	s := &n.table.Level0
	if level > 0 {
		s = n.table.BusAt(level)
	}
	out := n.sc.members[:0]
	if s != nil {
		for i := range s.Len() {
			r, _ := s.At(i)
			out = append(out, r)
		}
	}
	out = append(out, n.Ref())
	// The set is ID-ordered; a single insertion places self.
	for i := len(out) - 1; i > 0 && out[i-1].ID > out[i].ID; i-- {
		out[i-1], out[i] = out[i], out[i-1]
	}
	n.sc.members = out
	return out
}

// regionAt derives the node's tessellation cell at the given level from its
// known bus members: cell boundaries fall midway between adjacent members
// (§III.a). For level 0 or an unknown level the cell degenerates to the
// node's own coordinate neighbourhood.
func (n *Node) regionAt(level uint8) idspace.Region {
	members := n.busMembersWithSelf(level)
	ids := n.sc.ids[:0]
	for _, m := range members {
		ids = append(ids, m.ID)
	}
	n.sc.ids = ids
	idx := sort.Search(len(ids), func(i int) bool { return ids[i] >= n.cfg.ID })
	// Self is in the list by construction; handle duplicate IDs by scanning.
	for idx < len(ids) && members[idx].Addr != n.Addr() && ids[idx] == n.cfg.ID {
		idx++
	}
	if idx >= len(ids) || ids[idx] != n.cfg.ID {
		return idspace.FullRegion()
	}
	return idspace.FullRegion().CellOf(ids, idx)
}

// busNeighbors returns the node's direct left/right neighbours at a level
// (either may be zero at the edges).
func (n *Node) busNeighbors(level uint8) (left, right proto.NodeRef) {
	if level == 0 {
		return n.table.Level0.Neighbors(n.cfg.ID)
	}
	if s := n.table.BusAt(level); s != nil {
		return s.Neighbors(n.cfg.ID)
	}
	return proto.NodeRef{}, proto.NodeRef{}
}

// activePeers returns the distinct addresses of the node's actively
// maintained connections: level-0 direct neighbours and per-level bus
// neighbours (§III.a "all the edges of the hierarchy (called active
// connections) are actively maintained"; parent and children links have
// their own report mechanism). Each connection is kept alive by one ping a
// round from its lower end (keepaliveTick).
func (n *Node) activePeers() []proto.NodeRef {
	out := n.sc.peers[:0]
	self := n.Addr()
	l, r := n.table.Level0.Neighbors(n.cfg.ID)
	out = appendPeerDedup(out, l, self)
	out = appendPeerDedup(out, r, self)
	for lvl := uint8(1); lvl <= n.maxLevel; lvl++ {
		bl, br := n.busNeighbors(lvl)
		out = appendPeerDedup(out, bl, self)
		out = appendPeerDedup(out, br, self)
	}
	n.sc.peers = out
	return out
}

// appendPeerDedup appends r unless it is zero, self, or already present.
// Linear scan: the active-connection set is two refs per occupied level.
func appendPeerDedup(out []proto.NodeRef, r proto.NodeRef, self uint64) []proto.NodeRef {
	if r.IsZero() || r.Addr == self {
		return out
	}
	for i := range out {
		if out[i].Addr == r.Addr {
			return out
		}
	}
	return append(out, r)
}

// bestKnownMember returns the nearest known member of the given level
// (searching bus knowledge, superiors and the parent slot), excluding the
// node itself, together with the time that knowledge was last validated —
// callers relaying the ref to third parties must ship that age along. Ties
// break by proto.Nearer so behaviour is deterministic.
func (n *Node) bestKnownMember(level uint8, near idspace.ID) (proto.NodeRef, time.Duration, bool) {
	var best proto.NodeRef
	var bestSeen time.Duration
	found := false
	now := n.env.Now()
	consider := func(r proto.NodeRef, seen time.Duration) {
		if r.IsZero() || r.Addr == n.Addr() || r.MaxLevel < level {
			return
		}
		if ps := n.peers.Find(r.Addr); ps != nil && ps.Refused {
			if now-ps.RefusedAt < EntryTTL {
				return
			}
			ps.Refused = false
		}
		if !found || proto.Nearer(near, r, best) {
			best, bestSeen, found = r, seen, true
		}
	}
	considerSet := func(s *rtable.Set) {
		for i := range s.Len() {
			r, e := s.At(i)
			consider(r, e.LastSeen)
		}
	}
	for lvl := level; lvl <= n.cfg.MaxHeight; lvl++ {
		if s := n.table.BusAt(lvl); s != nil {
			considerSet(s)
		}
	}
	considerSet(&n.table.Superiors)
	if p, ok := n.table.Parent(); ok {
		seen := time.Duration(0)
		if pe, ok2 := n.table.ParentEntry(); ok2 {
			seen = pe.LastSeen
		}
		consider(p, seen)
	}
	considerSet(&n.table.Level0)
	return best, bestSeen, found
}

// structuralEntries lists the node's own load-bearing relationships —
// parent, level-0 neighbours, top-level bus neighbours, children — for
// inclusion in every keep-alive. Unlike version-gated deltas these repeat
// while the relationship holds, so the replicated knowledge that §III.c
// relies on for robustness (superior lists, neighbours' children, indirect
// neighbours) stays fresh at its consumers exactly as long as the provider
// is alive.
//
// Only relations with fresh *direct* contact are advertised: a node may
// vouch for peers it has actually heard from, never for hearsay. Without
// this rule two survivors can keep a dead neighbour alive forever by
// echoing each other's advertisements. Superiors are the one exception —
// they are vouched for by the parent chain, which is acyclic, so staleness
// there is bounded by depth × TTL rather than unbounded.
func (n *Node) structuralEntries(out []proto.Entry) []proto.Entry {
	now := n.env.Now()
	ttl := EntryTTL
	v := n.table.Version()
	if p, ok := n.table.Parent(); ok && !n.table.ParentExpired(now, ttl) {
		pe, _ := n.table.ParentEntry()
		out = append(out, proto.Entry{Ref: p, Level: p.MaxLevel, Flags: proto.FParent, Version: v,
			AgeDs: proto.AgeFrom(now, pe.LastDirect)})
	}
	age := func(s *rtable.Set, addr uint64) uint16 {
		if e := s.Get(addr); e != nil {
			return proto.AgeFrom(now, e.LastDirect)
		}
		return 0
	}
	// Two direct-fresh ring contacts per side: the wider advertisement is
	// what lets survivors bridge multi-node gaps after failures (§III.c
	// allows l0 up to n-1; we keep it small but not minimal).
	nbrs := n.table.Level0.AppendNeighborsFreshK(n.sc.refs[:0], n.cfg.ID, now, ttl, 2, true)
	nbrs = n.table.Level0.AppendNeighborsFreshK(nbrs, n.cfg.ID, now, ttl, 2, false)
	n.sc.refs = nbrs
	for _, nb := range nbrs {
		out = append(out, proto.Entry{Ref: nb, Level: 0, Flags: proto.FNeighbor, Version: v,
			AgeDs: age(&n.table.Level0, nb.Addr)})
	}
	for lvl := uint8(1); lvl <= n.maxLevel; lvl++ {
		if s := n.table.BusAt(lvl); s != nil {
			bl, br := s.NeighborsFresh(n.cfg.ID, now, ttl)
			for _, nb := range [2]proto.NodeRef{bl, br} {
				if !nb.IsZero() {
					out = append(out, proto.Entry{Ref: nb, Level: lvl, Flags: proto.FNeighbor, Version: v,
						AgeDs: age(s, nb.Addr)})
				}
			}
		}
	}
	fresh := n.table.Children.AppendFreshRefs(n.sc.refs[:0], now, ttl)
	n.sc.refs = fresh
	for _, c := range fresh {
		out = append(out, proto.Entry{Ref: c, Level: c.MaxLevel, Flags: proto.FChild, Version: v,
			AgeDs: age(&n.table.Children, c.Addr)})
	}
	return out
}

// superiorEntries lists the node's superior list for shipment to its
// children (their ancestors, Figure 2). Shipped only on the child-report
// ack: no other peer applies them, and spreading them wide would let stale
// upper-level refs circulate.
func (n *Node) superiorEntries(out []proto.Entry) []proto.Entry {
	now := n.env.Now()
	v := n.table.Version()
	sups := &n.table.Superiors
	for i := range sups.Len() {
		s, e := sups.At(i)
		out = append(out, proto.Entry{Ref: s, Level: s.MaxLevel, Flags: proto.FSuperior, Version: v, AgeDs: proto.AgeFrom(now, e.LastSeen)})
	}
	return out
}

// composeUpdate merges the version-gated delta for a peer with the
// always-shipped structural entries, deduplicated by address+flags, delta
// first, and returns them in a buffer of their own from proto.EntryBuf,
// sized to what they are: the buffer a keep-alive carries while in flight.
// forChild additionally ships the superior list.
func (n *Node) composeUpdate(peer uint64, forChild bool) []proto.Entry {
	ps := n.peerFor(peer)
	all := n.table.AppendDelta(n.sc.entries[:0], ps.LastSent, n.env.Now())
	ps.LastSent = n.table.Version()
	ps.LastSentAt = n.env.Now()
	all = n.structuralEntries(all)
	if forChild {
		all = n.superiorEntries(all)
	}
	n.sc.entries = all
	// Dedup in place: what is kept is a prefix of what has been read.
	// Linear scan: updates are a few dozen entries at most (§III.e bounds
	// the table, the delta is the changed subset), and a map here costs an
	// allocation per outgoing message.
	kept := all[:0]
next:
	for _, e := range all {
		for _, k := range kept {
			if k.Ref.Addr == e.Ref.Addr && k.Flags == e.Flags {
				continue next
			}
		}
		kept = append(kept, e)
	}
	if len(kept) > proto.MaxKeepAliveEntries {
		// Wire-safety clamp: a keep-alive must fit proto.MaxDatagram on
		// the real-socket plane. §III.e bounds tables to dozens of
		// entries, so this never fires in practice; dropped entries
		// simply ride a later piggyback.
		kept = kept[:proto.MaxKeepAliveEntries]
	}
	return append(proto.EntryBuf(len(kept)), kept...)
}
