// Package chord implements a compact Chord DHT baseline (Stoica et al.) on
// the same simulated network as TreeP. The paper positions TreeP against
// DHTs like Chord (§I, §III.d: "Unlike some systems such as Chord, the
// TreeP routing table is maintained in a very efficient way"); this
// baseline lets the EXT-1 bench subject both to the same kill sweep.
//
// The implementation is deliberately standard: 64-bit ring, finger tables,
// successor lists for fault tolerance, periodic stabilisation with
// fix_fingers, dynamic joins bootstrapped through a successor lookup, and
// recursive lookups answered directly to the origin. Key types: Cluster
// (a simulated deployment), Node, LookupResult. The comparative harness
// drives it through the overlay.Chord adapter.
package chord

import (
	"math/rand"
	"sort"
	"time"

	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/sim"
)

// ringDist returns the clockwise distance from a to b on the ring.
func ringDist(a, b idspace.ID) uint64 { return uint64(b - a) }

// between reports whether x ∈ (a, b] clockwise.
func between(x, a, b idspace.ID) bool {
	if a == b {
		return true
	}
	return ringDist(a, x) <= ringDist(a, b) && x != a
}

// ref names a chord node.
type ref struct {
	ID   idspace.ID
	Addr netsim.Addr
}

func (r ref) zero() bool { return r.Addr == 0 }

// Message types (simulation-only; the chord baseline does not need wire
// encoding).
type findSuccessor struct {
	Origin ref
	Target idspace.ID
	ReqID  uint64
	Hops   uint8
	TTL    uint8
}

type foundSuccessor struct {
	ReqID uint64
	Succ  ref
	Hops  uint8
}

type getPredecessor struct{ From ref }

type predecessorIs struct {
	Pred ref
	// SuccList is the sender's successor list, for successor-list repair.
	SuccList []ref
}

type notify struct{ From ref }

// Node is one Chord peer.
type Node struct {
	id   idspace.ID
	addr netsim.Addr
	net  *netsim.Network
	rng  *rand.Rand

	fingers  [64]ref
	succList []ref // r successors, nearest first
	pred     ref

	alive bool

	// nextFinger rotates through the finger table for fix_fingers.
	nextFinger int
	// bootstrapping guards against concurrent bootstrap chains: stabilize
	// re-triggers bootstrapJoin every round while the successor list is
	// empty, but only one resolution may be in flight at a time.
	bootstrapping bool
	// stabTimer is the periodic stabilisation driver, cancelled on Kill so
	// dead nodes stop consuming kernel events.
	stabTimer sim.Timer

	nextReq uint64
	pending map[uint64]*pendingLookup
}

type pendingLookup struct {
	cb    func(LookupResult)
	timer sim.Timer
}

// LookupResult reports a chord lookup outcome.
type LookupResult struct {
	Found bool
	Succ  idspace.ID
	Addr  netsim.Addr
	Hops  int
}

// successors kept per node.
const succListLen = 4

// Cluster is a simulated Chord deployment.
type Cluster struct {
	Kernel *sim.Kernel
	Net    *netsim.Network
	Nodes  []*Node

	byAddr map[netsim.Addr]*Node
	// timers are per-cluster periodic drivers.
	stabilizeEvery time.Duration
	lookupTimeout  time.Duration
	// spawnRand drives dynamic-join decisions (new IDs, bootstrap picks).
	spawnRand *rand.Rand
}

// New builds a Chord ring of n nodes with fully initialised fingers
// (steady state, mirroring the TreeP bulk build) and starts periodic
// stabilisation.
func New(n int, seed int64) *Cluster {
	k := sim.New(seed)
	net := netsim.New(k)
	c := &Cluster{
		Kernel:         k,
		Net:            net,
		byAddr:         map[netsim.Addr]*Node{},
		stabilizeEvery: 2 * time.Second,
		lookupTimeout:  10 * time.Second,
		spawnRand:      k.Stream(0x73706e63), // "spnc"
	}
	idRand := k.Stream(0x63686f72) // "chor"
	for i := 0; i < n; i++ {
		nd := &Node{
			net:     net,
			rng:     k.Stream(uint64(i) + 1000),
			pending: map[uint64]*pendingLookup{},
			alive:   true,
			id:      idspace.ID(idRand.Uint64()),
		}
		nd.addr = net.Attach(func(from netsim.Addr, payload interface{}, size int) {
			nd.handle(from, payload)
		})
		c.Nodes = append(c.Nodes, nd)
		c.byAddr[nd.addr] = nd
	}
	sort.Slice(c.Nodes, func(i, j int) bool { return c.Nodes[i].id < c.Nodes[j].id })

	// Steady-state initialisation: exact fingers, successors, predecessors.
	refs := make([]ref, n)
	ids := make([]idspace.ID, n)
	for i, nd := range c.Nodes {
		refs[i] = ref{ID: nd.id, Addr: nd.addr}
		ids[i] = nd.id
	}
	for i, nd := range c.Nodes {
		for s := 1; s <= succListLen; s++ {
			nd.succList = append(nd.succList, refs[(i+s)%n])
		}
		nd.pred = refs[(i-1+n)%n]
		for f := 0; f < 64; f++ {
			start := nd.id + idspace.ID(uint64(1)<<uint(f))
			// successor(start): first node clockwise from start.
			j := sort.Search(n, func(j int) bool { return ids[j] >= start })
			if j == n {
				j = 0
			}
			nd.fingers[f] = refs[j]
		}
	}

	// Periodic stabilisation per node.
	for _, nd := range c.Nodes {
		c.startStabilize(nd)
	}
	return c
}

// startStabilize schedules a node's periodic stabilisation with a random
// phase offset so rounds do not synchronise cluster-wide. It rides the
// kernel's pooled periodic path and is cancelled on Kill.
func (c *Cluster) startStabilize(nd *Node) {
	offset := time.Duration(nd.rng.Int63n(int64(c.stabilizeEvery)))
	nd.stabTimer = c.Kernel.SchedulePeriodic(offset, c.stabilizeEvery, func() {
		if nd.alive {
			nd.stabilize(c)
		}
	})
}

// Join spawns a brand-new node mid-simulation and bootstraps it through a
// live peer: the bootstrap resolves successor(newID); the joiner adopts
// the answer as its successor, seeds its fingers with it, and lets
// periodic stabilisation repair fingers and predecessors — the standard
// simulation treatment of Chord's join. Integration completes
// asynchronously as the kernel advances; it returns nil when no live
// bootstrap exists.
func (c *Cluster) Join() *Node {
	alive := c.AliveNodes()
	if len(alive) == 0 {
		return nil
	}
	nd := &Node{
		net:     c.Net,
		pending: map[uint64]*pendingLookup{},
		alive:   true,
		id:      idspace.ID(c.spawnRand.Uint64()),
	}
	nd.addr = c.Net.Attach(func(from netsim.Addr, payload interface{}, size int) {
		nd.handle(from, payload)
	})
	nd.rng = c.Kernel.Stream(uint64(nd.addr) + 1000)
	c.Nodes = append(c.Nodes, nd)
	c.byAddr[nd.addr] = nd

	c.bootstrapJoin(nd)
	c.startStabilize(nd)
	return nd
}

// bootstrapJoin resolves successor(nd.id) through a random live peer and
// installs the answer. A failed resolution (the bootstrap died, the ring
// was churning, the lookup timed out) is retried through a fresh
// bootstrap every stabilisation interval until the node has a successor —
// without the retry a lost join leaves a permanent ghost that counts as
// alive but can neither route nor be routed to.
func (c *Cluster) bootstrapJoin(nd *Node) {
	if !nd.alive || nd.bootstrapping || !nd.firstLiveSuccessor().zero() {
		return
	}
	var boot *Node
	for _, cand := range c.AliveNodes() {
		if cand.addr != nd.addr {
			boot = cand
			break
		}
	}
	if boot == nil {
		return
	}
	// Randomise among live peers: scan start chosen by the spawn stream.
	if alive := c.AliveNodes(); len(alive) > 1 {
		for tries := 0; tries < 4; tries++ {
			cand := alive[c.spawnRand.Intn(len(alive))]
			if cand.addr != nd.addr {
				boot = cand
				break
			}
		}
	}
	nd.bootstrapping = true
	boot.Lookup(c, nd.id, func(r LookupResult) {
		nd.bootstrapping = false
		if !nd.alive || !nd.firstLiveSuccessor().zero() {
			return
		}
		if !r.Found || r.Addr == nd.addr {
			c.Kernel.Schedule(c.stabilizeEvery, func() { c.bootstrapJoin(nd) })
			return
		}
		succ := ref{ID: r.Succ, Addr: r.Addr}
		nd.succList = append([]ref{succ}, nd.succList...)
		if len(nd.succList) > succListLen {
			nd.succList = nd.succList[:succListLen]
		}
		for f := range nd.fingers {
			if nd.fingers[f].zero() {
				nd.fingers[f] = succ
			}
		}
	})
}

// Partition splits the network at the given ring coordinate: datagrams
// between nodes on opposite sides of split are dropped until Heal.
func (c *Cluster) Partition(split idspace.ID) {
	c.Net.SetLinkFilter(netsim.SplitFilter(split, func(a netsim.Addr) (idspace.ID, bool) {
		nd, ok := c.byAddr[a]
		if !ok {
			return 0, false
		}
		return nd.id, true
	}))
}

// Heal removes the partition installed by Partition.
func (c *Cluster) Heal() { c.Net.SetLinkFilter(nil) }

// LookupTimeout reports how long a lookup can stay pending before its
// origin gives up.
func (c *Cluster) LookupTimeout() time.Duration { return c.lookupTimeout }

// StateSize returns the node's routing-state entry count: distinct peers
// referenced by its fingers, successor list and predecessor.
func (nd *Node) StateSize() int {
	seen := map[netsim.Addr]bool{}
	for _, f := range nd.fingers {
		if !f.zero() {
			seen[f.Addr] = true
		}
	}
	for _, s := range nd.succList {
		if !s.zero() {
			seen[s.Addr] = true
		}
	}
	if !nd.pred.zero() {
		seen[nd.pred.Addr] = true
	}
	return len(seen)
}

// Run advances virtual time.
func (c *Cluster) Run(d time.Duration) { c.Kernel.RunFor(d) }

// Kill fail-stops a node.
func (c *Cluster) Kill(nd *Node) {
	nd.alive = false
	nd.stabTimer.Cancel()
	nd.stabTimer = sim.Timer{}
	c.Net.Kill(nd.addr)
}

// AliveNodes lists surviving nodes.
func (c *Cluster) AliveNodes() []*Node {
	out := make([]*Node, 0, len(c.Nodes))
	for _, nd := range c.Nodes {
		if nd.alive {
			out = append(out, nd)
		}
	}
	return out
}

// ID returns the node's ring coordinate.
func (nd *Node) ID() idspace.ID { return nd.id }

// Lookup resolves successor(target) and calls cb exactly once. The kernel
// must be advanced by the caller (Cluster.Run).
func (nd *Node) Lookup(c *Cluster, target idspace.ID, cb func(LookupResult)) {
	nd.nextReq++
	req := nd.nextReq
	pl := &pendingLookup{cb: cb}
	nd.pending[req] = pl
	pl.timer = c.Kernel.Schedule(c.lookupTimeout, func() {
		if _, ok := nd.pending[req]; !ok {
			return
		}
		delete(nd.pending, req)
		cb(LookupResult{Found: false})
	})
	nd.route(&findSuccessor{Origin: ref{ID: nd.id, Addr: nd.addr}, Target: target, ReqID: req, TTL: 200})
}

// route implements the recursive findSuccessor step at this node.
func (nd *Node) route(m *findSuccessor) {
	if m.TTL == 0 {
		return
	}
	succ := nd.firstLiveSuccessor()
	if succ.zero() {
		return
	}
	// Target in (self, successor]: the successor owns it.
	if between(m.Target, nd.id, succ.ID) {
		nd.net.Send(nd.addr, m.Origin.Addr, &foundSuccessor{ReqID: m.ReqID, Succ: succ, Hops: m.Hops + 1}, 64)
		return
	}
	next := nd.closestPreceding(m.Target)
	if next.zero() || next.Addr == nd.addr {
		next = succ
	}
	fwd := *m
	fwd.Hops++
	fwd.TTL--
	nd.net.Send(nd.addr, next.Addr, &fwd, 64)
}

// closestPreceding scans fingers and the successor list for the closest
// node preceding the target.
func (nd *Node) closestPreceding(target idspace.ID) ref {
	var best ref
	consider := func(r ref) {
		if r.zero() {
			return
		}
		if between(r.ID, nd.id, target) && r.ID != target {
			if best.zero() || between(best.ID, nd.id, r.ID) {
				best = r
			}
		}
	}
	for f := 63; f >= 0; f-- {
		consider(nd.fingers[f])
	}
	for _, s := range nd.succList {
		consider(s)
	}
	return best
}

func (nd *Node) firstLiveSuccessor() ref {
	if len(nd.succList) == 0 {
		return ref{}
	}
	return nd.succList[0]
}

// stabilize is Chord's periodic maintenance: verify the successor, adopt
// its predecessor when closer, refresh the successor list, notify, and
// run one fix_fingers step.
func (nd *Node) stabilize(c *Cluster) {
	// Keepalive-based failure detection, modelled out-of-band at
	// stabilise cadence (the same convention as DropDead): dead entries
	// fall off the front of the successor list and a dead predecessor is
	// forgotten. A node whose entire successor list died re-bootstraps
	// through a live peer — without this, a node orphaned by its
	// successor's death would probe the corpse forever.
	for len(nd.succList) > 0 && !c.Net.Alive(nd.succList[0].Addr) {
		nd.succList = nd.succList[1:]
	}
	if !nd.pred.zero() && !c.Net.Alive(nd.pred.Addr) {
		nd.pred = ref{}
	}
	succ := nd.firstLiveSuccessor()
	if succ.zero() {
		c.bootstrapJoin(nd)
		return
	}
	nd.net.Send(nd.addr, succ.Addr, &getPredecessor{From: ref{ID: nd.id, Addr: nd.addr}}, 32)
	nd.fixFinger(c)
}

// fixFinger is Chord's fix_fingers: re-resolve successor(id + 2^f) for one
// finger per round, rotating f. The resolution is a normal recursive
// lookup, so dead fingers heal and newly joined nodes become finger
// targets without any out-of-band state.
func (nd *Node) fixFinger(c *Cluster) {
	f := nd.nextFinger
	nd.nextFinger = (nd.nextFinger + 1) % len(nd.fingers)
	start := nd.id + idspace.ID(uint64(1)<<uint(f))
	nd.Lookup(c, start, func(r LookupResult) {
		if r.Found && nd.alive {
			nd.fingers[f] = ref{ID: r.Succ, Addr: r.Addr}
		}
	})
}

// handle dispatches chord messages.
func (nd *Node) handle(from netsim.Addr, payload interface{}) {
	if !nd.alive {
		return
	}
	switch m := payload.(type) {
	case *findSuccessor:
		nd.route(m)
	case *foundSuccessor:
		if pl, ok := nd.pending[m.ReqID]; ok {
			delete(nd.pending, m.ReqID)
			pl.timer.Cancel()
			pl.cb(LookupResult{Found: true, Succ: m.Succ.ID, Addr: m.Succ.Addr, Hops: int(m.Hops)})
		}
	case *getPredecessor:
		nd.net.Send(nd.addr, from, &predecessorIs{Pred: nd.pred, SuccList: append([]ref(nil), nd.succList...)}, 128)
		// The asker is alive and behind us: candidate predecessor.
		if nd.pred.zero() || between(m.From.ID, nd.pred.ID, nd.id) {
			nd.pred = m.From
		}
	case *predecessorIs:
		succ := nd.firstLiveSuccessor()
		// successor's predecessor between us and successor: adopt it.
		if !m.Pred.zero() && !succ.zero() && between(m.Pred.ID, nd.id, succ.ID) && m.Pred.ID != succ.ID && m.Pred.Addr != nd.addr {
			nd.succList = append([]ref{m.Pred}, nd.succList...)
		} else if len(m.SuccList) > 0 {
			// Refresh our successor list from the successor's: succ + its
			// list, truncated.
			merged := append([]ref{succ}, m.SuccList...)
			nd.succList = merged
		}
		if len(nd.succList) > succListLen {
			nd.succList = nd.succList[:succListLen]
		}
		if s := nd.firstLiveSuccessor(); !s.zero() {
			nd.net.Send(nd.addr, s.Addr, &notify{From: ref{ID: nd.id, Addr: nd.addr}}, 16)
		}
	case *notify:
		if nd.pred.zero() || between(m.From.ID, nd.pred.ID, nd.id) {
			nd.pred = m.From
		}
	}
}

// DropDead removes dead refs from successor lists and fingers; called by
// the harness after kills to model Chord's timeout-based failure detection
// without simulating per-entry timers.
func (c *Cluster) DropDead() {
	aliveAddr := map[netsim.Addr]bool{}
	for _, nd := range c.Nodes {
		if nd.alive {
			aliveAddr[nd.addr] = true
		}
	}
	for _, nd := range c.Nodes {
		if !nd.alive {
			continue
		}
		kept := nd.succList[:0]
		for _, s := range nd.succList {
			if aliveAddr[s.Addr] {
				kept = append(kept, s)
			}
		}
		nd.succList = kept
		for f := range nd.fingers {
			if !nd.fingers[f].zero() && !aliveAddr[nd.fingers[f].Addr] {
				// Point dead fingers at the first live successor (repaired
				// properly by later stabilisation rounds).
				if s := nd.firstLiveSuccessor(); !s.zero() {
					nd.fingers[f] = s
				} else {
					nd.fingers[f] = ref{}
				}
			}
		}
		if !nd.pred.zero() && !aliveAddr[nd.pred.Addr] {
			nd.pred = ref{}
		}
	}
}
