package core

import (
	"slices"
	"sync"
	"time"

	"treep/internal/proto"
	"treep/internal/routing"
)

// Hop-level failover for lookups (DESIGN.md §15).
//
// A routing table mixes first-hand knowledge with hearsay: entries for
// peers this node has exchanged datagrams with lately, and entries a
// third party mentioned. Under churn the second kind is where forwarded
// requests go to die. So a forward to a peer not heard from within half a
// keep-alive round is *held*: the request as received stays in a slot, the
// forwarded copy carries the ack-wanted bit, and the next hop answers with
// a hop acknowledgement. Any datagram from that peer releases the slot.
// Silence for one round-trip bound routes the held request around the peer
// (the hedge) and keeps the peer in doubt; silence for two excludes it from
// this node's routing decisions (the verdict).
//
// Every interval below comes from the keep-alive period or from the
// node's own round-trip estimate; there is nothing to configure.

const (
	// heldSlots bounds the requests one node holds at a time. A hold lasts
	// one round trip, so even a node forwarding hundreds of requests a
	// second to stale entries keeps a handful in flight; a forward that
	// finds no free slot goes out un-held and is counted.
	heldSlots = 4
	// suspectSlots bounds the excluded peers; the oldest is forgotten when
	// a new one needs the slot (and costs one more deadline if it is still
	// in the table and still dead).
	suspectSlots = 4
)

// heldForward is one held request: who was asked, until when, and the
// request exactly as it reached this node (from is its previous hop, 0
// when it started here), as a pooled copy that owns its alternates and the
// request it carries. The copy goes back to its pool when the slot is
// released or its request re-routed. A copy naming no silent peer waits
// for the hedge, any other slot for the verdict: req is nil once hedged.
type heldForward struct {
	peer     uint64 // 0: slot is free
	from     uint64
	deadline time.Duration
	req      *proto.LookupRequest
}

// failover is a node's hold table and exclusion list, taken from foPool on
// the node's first hold and handed back once idle (putFailover). It fits a
// 240-byte allocation.
type failover struct {
	n     *Node // the holder; nil in the pool
	slots [heldSlots]heldForward
	// suspects[:suspectN] are the excluded peers, oldest first, with the
	// time each was excluded; Node.route hands routing the addresses.
	suspects  [suspectSlots]uint64
	suspectAt [suspectSlots]time.Duration
	// One deadline timer, due at armedAt, serves every slot. A hold arms
	// it when none is pending or its deadline comes first; it is left to
	// run out when its slot is released early, and the firing re-arms for
	// the earliest deadline still held. fire is expired, bound once for
	// the record, whichever node holds it.
	timer    Timer
	fire     func()
	armedAt  time.Duration
	armed    bool
	held     uint8
	suspectN uint8
}

// foPool holds the idle failover records of every node in the process.
var foPool sync.Pool

// --- round-trip estimate -------------------------------------------------------

// The estimate is node-wide, not per peer: the peers a hold concerns are
// by definition the ones this node has no recent exchange with. It is fed
// by the keep-alive pings the node sends anyway (keepaliveTick notes the
// sequence range and the instant, handlePong takes the sample) and
// smoothed as TCP does (RFC 6298: gain 1/8 on the mean, 1/4 on the
// deviation). It starts at rttPrior and converges within a few rounds.

// rttPrior is the estimate before any sample: a sixteenth of the
// keep-alive period, far above any link the defaults are meant for, so a
// fresh node errs toward waiting.
func rttPrior(keepAlive time.Duration) time.Duration { return keepAlive / 16 }

func (n *Node) observeRTT(sample time.Duration) {
	dev := n.srtt - sample
	if dev < 0 {
		dev = -dev
	}
	n.rttvar += (dev - n.rttvar) / 4
	n.srtt += (sample - n.srtt) / 8
}

// rttFloor is the shortest interval the estimate is trusted to resolve:
// 1/64 of the keep-alive period. Below it a late answer is scheduler and
// timer granularity, not the network (a loopback round trip measures tens
// of microseconds; a collector pause is longer).
func (n *Node) rttFloor() time.Duration { return n.cfg.KeepAlive / 64 }

// rttBound is how long a round trip to an arbitrary peer may take before
// silence means something: mean plus four deviations.
func (n *Node) rttBound() time.Duration {
	return max(n.srtt+4*n.rttvar, n.rttFloor())
}

// lookupRTO is the origin's first retransmission timeout: a walk that uses
// its whole hop budget, every forward and the reply charged a full round
// trip (twice what they cost one way), and half as much again.
func (n *Node) lookupRTO() time.Duration {
	return time.Duration(n.cfg.Routing.HopBudget()) * max(n.srtt, n.rttFloor()) * 3 / 2
}

// --- holding -------------------------------------------------------------------

// hold decides whether the forward of m to next must be acknowledged, and
// if so keeps m (received from the peer at from). It reports whether the
// forwarded copy should carry the ack-wanted bit. A re-issue is held
// whatever next's age: the walk before it went silent somewhere, and the
// origin's fresh first hop is where it would go silent again.
func (n *Node) hold(from uint64, m *proto.LookupRequest, next uint64, reissue bool) bool {
	now := n.env.Now()
	bound := n.rttBound()
	// Heard from within half a keep-alive round (and the slack one round
	// trip needs): the entry is first-hand and fresh. An active connection
	// is heard from once a round, so its forwards are held in the older
	// half: a peer cannot have been silent for more than that when a
	// forward reaches it un-held, and one that stopped earlier is caught by
	// the hold deadline rather than by the origin's RTO.
	if last, ok := n.table.LastDirect(next); ok && !reissue && now-last <= n.cfg.KeepAlive/2+bound {
		return false
	}
	fo := n.fo
	if fo == nil {
		if fo, _ = foPool.Get().(*failover); fo == nil {
			fo = new(failover)
			fo.fire = fo.expired
		}
		fo.n, n.fo = n, fo
	}
	if fo.held == heldSlots {
		n.Stats.LookupHeldOverflows++
		return false
	}
	var slot *heldForward
	for i := range fo.slots {
		if fo.slots[i].peer == 0 {
			slot = &fo.slots[i]
			break
		}
	}
	fo.held++
	req := proto.Acquire(proto.TLookupRequest).(*proto.LookupRequest)
	*req = *m
	req.Alternates, req.Carried = slices.Clone(m.Alternates), proto.PooledCopy(m.Carried)
	// A request that already names a silent peer skips the hedge: re-routed
	// at one bound it would overwrite a verdict with a mere doubt.
	wait := bound
	if m.Silent != 0 {
		wait = 2 * bound
	}
	slot.peer, slot.from, slot.deadline, slot.req = next, from, now+wait, req
	n.Stats.LookupAcksSolicited++
	if !fo.armed || slot.deadline < fo.armedAt {
		fo.timer.Cancel() // a no-op on a handle already fired
		fo.armed, fo.armedAt = true, slot.deadline
		fo.timer = n.env.SetTimer(slot.deadline-now, fo.fire)
	}
	return true
}

// heardFrom is the failover half of receiving any datagram from a peer:
// what was held for it is released, and an exclusion it was under ends.
// Called for every inbound message, so the idle case is two compares.
func (n *Node) heardFrom(peer uint64) {
	fo := n.fo
	if fo == nil {
		return
	}
	if fo.held > 0 {
		for i := range fo.slots {
			if slot := &fo.slots[i]; slot.peer == peer {
				if slot.req == nil {
					n.Stats.LookupHedgesEarly++ // in doubt, not excluded
				} else {
					proto.ReleaseDecoded(slot.req)
				}
				slot.peer, slot.req = 0, nil
				fo.held--
			}
		}
	}
	for i := range fo.suspects[:fo.suspectN] {
		if fo.suspects[i] == peer {
			// Excluded, yet alive: the failover that excluded it left a live
			// peer for another. Loss or a deadline too tight does this.
			n.Stats.LookupFalseFailovers++
			n.dropSuspect(i)
			break
		}
	}
	n.putFailover()
}

// expired is the deadline timer. The hedge sends a request on to another
// peer, naming the silent one, and keeps that one in doubt (Node.route
// skips it); the verdict excludes the peer and routes a request still held
// again, naming it. The hops after this one skip the named peer for that
// request only: to them it is hearsay, and hearsay mints no state.
func (fo *failover) expired() {
	n := fo.n
	now := n.env.Now()
	// armed stays set, due now, while requests are re-routed, so a hold
	// made on the way does not arm a second timer; one is armed below for
	// whatever is still held.
	for i := range fo.slots {
		slot := &fo.slots[i]
		if slot.peer == 0 || slot.deadline > now {
			continue
		}
		from, req := slot.from, slot.req
		if req != nil && req.Silent == 0 {
			req.Silent = slot.peer
			slot.deadline += n.rttBound()
			if step := n.route(from, req); step.Action == routing.Forward {
				slot.req = nil // in doubt before the forward takes a slot
				n.forward(from, req, step, false)
				proto.ReleaseDecoded(req)
			}
			continue
		}
		peer := slot.peer
		n.Stats.LookupFailovers++
		n.suspect(peer, now)
		// The slot is free before the request is routed again: the new
		// forward may be held, in this slot or another.
		slot.peer, slot.req = 0, nil
		fo.held--
		if req != nil {
			req.Silent = peer
			n.advance(from, req, false)
			proto.ReleaseDecoded(req)
		}
	}
	fo.armed = false
	if fo.held == 0 {
		n.putFailover()
		return
	}
	var earliest time.Duration
	for i := range fo.slots {
		if s := &fo.slots[i]; s.peer != 0 && (earliest == 0 || s.deadline < earliest) {
			earliest = s.deadline
		}
	}
	fo.armed, fo.armedAt = true, earliest
	fo.timer = n.env.SetTimer(earliest-now, fo.fire)
}

// --- exclusion -----------------------------------------------------------------

// suspect excludes peer from this node's routing decisions until it is
// heard from again or, silent, has had time to expire from the table.
func (n *Node) suspect(peer uint64, now time.Duration) {
	fo := n.fo
	for i := range fo.suspects[:fo.suspectN] {
		if fo.suspects[i] == peer {
			n.dropSuspect(i) // re-filed below as the newest
			break
		}
	}
	if fo.suspectN == suspectSlots {
		n.dropSuspect(0)
	}
	fo.suspects[fo.suspectN], fo.suspectAt[fo.suspectN] = peer, now
	fo.suspectN++
}

// dropSuspect removes the i-th exclusion, keeping the rest oldest first.
func (n *Node) dropSuspect(i int) {
	fo := n.fo
	copy(fo.suspects[i:fo.suspectN], fo.suspects[i+1:fo.suspectN])
	copy(fo.suspectAt[i:fo.suspectN], fo.suspectAt[i+1:fo.suspectN])
	fo.suspectN--
}

// expireSuspects ends exclusions older than the entry TTL (sweep tick): a
// peer that stayed silent that long is gone from the table, and one that
// hearsay has since re-filed gets a fresh chance, held as before.
func (n *Node) expireSuspects(now time.Duration) {
	fo := n.fo
	if fo == nil {
		return
	}
	for fo.suspectN > 0 && now-fo.suspectAt[0] >= n.cfg.EntryTTL {
		n.dropSuspect(0)
	}
	n.putFailover()
}

// putFailover hands the record back once it is idle: no slot held, no one
// excluded, no deadline armed (the firing calls here again).
func (n *Node) putFailover() {
	if fo := n.fo; fo.held == 0 && fo.suspectN == 0 && !fo.armed {
		fo.n, n.fo = nil, nil
		foPool.Put(fo)
	}
}

// stopFailover drops the hold table with its timer (node shutdown).
func (n *Node) stopFailover() {
	if n.fo == nil {
		return
	}
	if n.fo.armed {
		n.fo.timer.Cancel()
	}
	n.fo = nil
}
