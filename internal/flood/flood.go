// Package flood is a Gnutella-style unstructured baseline: nodes form a
// random k-regular-ish graph and lookups flood with a TTL and duplicate
// suppression. The paper's introduction dismisses blind flooding as
// unscalable (§I, citing "Why Gnutella Can't Scale"); the comparative
// harness shows the message-cost gap against TreeP on identical
// workloads. Key types: Cluster (a simulated deployment, with dynamic
// Join and keepalive-modelled PruneDead re-wiring), Node, Result. The
// comparative harness drives it through the overlay.Flood adapter.
package flood

import (
	"math/rand"
	"time"

	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/sim"
)

// query is the flooded message.
type query struct {
	Origin netsim.Addr
	Target idspace.ID
	ReqID  uint64
	TTL    uint8
	// Hops counts forwards taken so far, so a hit can report path length.
	Hops uint8
}

// queryHit answers the origin directly.
type queryHit struct {
	ReqID uint64
	ID    idspace.ID
	Addr  netsim.Addr
	Hops  uint8
}

// Node is one flooding peer.
type Node struct {
	id    idspace.ID
	addr  netsim.Addr
	net   *netsim.Network
	peers []netsim.Addr
	alive bool

	seen    map[uint64]bool
	pending map[uint64]*pending
}

type pending struct {
	cb    func(Result)
	timer sim.Timer
	hops  uint8
	done  bool
}

// Result reports a flood lookup outcome.
type Result struct {
	Found bool
	Hops  int
}

// Cluster is a simulated flooding network.
type Cluster struct {
	Kernel *sim.Kernel
	Net    *netsim.Network
	Nodes  []*Node

	byAddr  map[netsim.Addr]*Node
	degree  int
	wire    *rand.Rand
	idRand  *rand.Rand
	timeout time.Duration
	// nextReq numbers lookups; per-cluster (not package-global) so
	// concurrent trials in different clusters do not race.
	nextReq uint64
}

// New builds n nodes wired into a random graph of the given degree.
func New(n, degree int, seed int64) *Cluster {
	k := sim.New(seed)
	net := netsim.New(k)
	c := &Cluster{
		Kernel:  k,
		Net:     net,
		byAddr:  map[netsim.Addr]*Node{},
		degree:  degree,
		wire:    k.Stream(0x77697265), // "wire"
		idRand:  k.Stream(0x666c6f6f), // "floo"
		timeout: 10 * time.Second,
	}
	for i := 0; i < n; i++ {
		c.attach()
	}
	// Random graph: each node draws `degree` distinct peers; edges are
	// symmetric.
	for i, nd := range c.Nodes {
		for len(nd.peers) < degree {
			j := c.wire.Intn(n)
			if j == i {
				continue
			}
			other := c.Nodes[j]
			if hasPeer(nd, other.addr) {
				continue
			}
			nd.peers = append(nd.peers, other.addr)
			if !hasPeer(other, nd.addr) {
				other.peers = append(other.peers, nd.addr)
			}
		}
	}
	return c
}

// attach creates one unwired live node on the network.
func (c *Cluster) attach() *Node {
	nd := &Node{
		net:     c.Net,
		alive:   true,
		id:      idspace.ID(c.idRand.Uint64()),
		seen:    map[uint64]bool{},
		pending: map[uint64]*pending{},
	}
	nd.addr = c.Net.Attach(func(from netsim.Addr, payload interface{}, size int) {
		nd.handle(from, payload)
	})
	c.Nodes = append(c.Nodes, nd)
	c.byAddr[nd.addr] = nd
	return nd
}

// Join spawns a new node mid-simulation and wires it to `degree` random
// live peers with symmetric edges (a Gnutella client dialling its host
// cache). It returns nil when no live peer exists to dial.
func (c *Cluster) Join() *Node {
	alive := c.AliveNodes()
	if len(alive) == 0 {
		return nil
	}
	nd := c.attach()
	for tries := 0; len(nd.peers) < c.degree && tries < 8*c.degree; tries++ {
		other := alive[c.wire.Intn(len(alive))]
		if other.addr == nd.addr || hasPeer(nd, other.addr) {
			continue
		}
		nd.peers = append(nd.peers, other.addr)
		other.peers = append(other.peers, nd.addr)
	}
	return nd
}

// PruneDead drops dead endpoints from every live node's adjacency list and
// re-wires under-connected nodes back up to the target degree — the
// harness's stand-in for Gnutella's keepalive-based neighbour eviction and
// host-cache re-dialling. Called at phase boundaries, mirroring
// (*chord.Cluster).DropDead.
func (c *Cluster) PruneDead() {
	alive := c.AliveNodes()
	aliveAddr := make(map[netsim.Addr]bool, len(alive))
	for _, nd := range alive {
		aliveAddr[nd.addr] = true
	}
	for _, nd := range alive {
		kept := nd.peers[:0]
		for _, p := range nd.peers {
			if aliveAddr[p] {
				kept = append(kept, p)
			}
		}
		nd.peers = kept
	}
	for _, nd := range alive {
		for tries := 0; len(nd.peers) < c.degree && tries < 8*c.degree; tries++ {
			other := alive[c.wire.Intn(len(alive))]
			if other.addr == nd.addr || hasPeer(nd, other.addr) {
				continue
			}
			nd.peers = append(nd.peers, other.addr)
			other.peers = append(other.peers, nd.addr)
		}
	}
}

// Partition splits the network at the given coordinate: datagrams between
// nodes on opposite sides of split are dropped until Heal.
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
func (c *Cluster) LookupTimeout() time.Duration { return c.timeout }

// StateSize returns the node's routing-state entry count (its adjacency
// list — flooding keeps no other routing state).
func (nd *Node) StateSize() int { return len(nd.peers) }

func hasPeer(nd *Node, a netsim.Addr) bool {
	for _, p := range nd.peers {
		if p == a {
			return true
		}
	}
	return false
}

// Run advances virtual time.
func (c *Cluster) Run(d time.Duration) { c.Kernel.RunFor(d) }

// Kill fail-stops a node.
func (c *Cluster) Kill(nd *Node) {
	nd.alive = false
	c.Net.Kill(nd.addr)
}

// AliveNodes lists live nodes.
func (c *Cluster) AliveNodes() []*Node {
	out := make([]*Node, 0, len(c.Nodes))
	for _, nd := range c.Nodes {
		if nd.alive {
			out = append(out, nd)
		}
	}
	return out
}

// ID returns the node's identifier.
func (nd *Node) ID() idspace.ID { return nd.id }

// Lookup floods for the exact target ID; cb fires once with the outcome.
func (nd *Node) Lookup(c *Cluster, target idspace.ID, ttl uint8, cb func(Result)) {
	c.nextReq++
	req := c.nextReq
	p := &pending{cb: cb}
	nd.pending[req] = p
	p.timer = c.Kernel.Schedule(c.timeout, func() {
		if pp, ok := nd.pending[req]; ok && !pp.done {
			delete(nd.pending, req)
			cb(Result{Found: false})
		}
	})
	nd.seen[req] = true
	q := &query{Origin: nd.addr, Target: target, ReqID: req, TTL: ttl}
	if nd.id == target {
		p.done = true
		delete(nd.pending, req)
		p.timer.Cancel()
		cb(Result{Found: true, Hops: 0})
		return
	}
	nd.flood(q, 0)
}

func (nd *Node) flood(q *query, except netsim.Addr) {
	if q.TTL == 0 {
		return
	}
	next := *q
	next.TTL--
	next.Hops++
	for _, p := range nd.peers {
		if p == except {
			continue
		}
		nd.net.Send(nd.addr, p, &next, 32)
	}
}

func (nd *Node) handle(from netsim.Addr, payload interface{}) {
	if !nd.alive {
		return
	}
	switch m := payload.(type) {
	case *query:
		if nd.seen[m.ReqID] {
			return
		}
		nd.seen[m.ReqID] = true
		if nd.id == m.Target {
			nd.net.Send(nd.addr, m.Origin, &queryHit{ReqID: m.ReqID, ID: nd.id, Addr: nd.addr, Hops: m.Hops}, 32)
			return
		}
		nd.flood(m, from)
	case *queryHit:
		if p, ok := nd.pending[m.ReqID]; ok && !p.done {
			p.done = true
			delete(nd.pending, m.ReqID)
			p.timer.Cancel()
			p.cb(Result{Found: true, Hops: int(m.Hops)})
		}
	}
}
