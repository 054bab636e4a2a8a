package routing

import (
	"math/rand"
	"testing"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/rtable"
)

// fuzzBytes hands out the bytes of a fuzz input, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return v
}

// routeCase is one decision input: the arguments of RouteWith and the
// excluded peers its scratch carries.
type routeCase struct {
	self       proto.NodeRef
	tbl        *rtable.Table
	req        *proto.LookupRequest
	fromParent bool
	sender     uint64
	ex         Excluded
}

// decodeRouteCase builds a decision input from fuzz bytes. Twelve peers
// (addresses 1–12) are drawn first, most with IDs 1 to 8 either side of
// the target so that ties are common: IDs equidistant either side of it,
// equal IDs with different addresses, and pairs about 2^60 away that are
// distinct as uint64 but equal as float64. Then each table entry files
// one of them, with a level claim and score of its own, in any set or the
// parent slot, so one address is often held at several levels. Self may be
// one of the twelve (the table holding self), and so may the sender, the
// excluded peers and the carried alternates. Every algorithm, regime and
// fromParent value comes up. Addresses are never 0, the absent-node
// sentinel.
func decodeRouteCase(data []byte) routeCase {
	b := fuzzBytes(data)
	x := idspace.ID(1<<63) + idspace.ID(b.next())<<16 + idspace.ID(b.next())
	id := func() idspace.ID {
		kind, off := b.next(), b.next()
		switch kind % 4 {
		case 2:
			far := idspace.ID(1<<60) + idspace.ID(off%4)
			if off&0x80 != 0 {
				return x - far
			}
			return x + far
		case 3:
			return idspace.ID(off)<<56 | idspace.ID(kind)
		}
		d := idspace.ID(off%8) + 1
		if off&8 != 0 {
			return x - d
		}
		return x + d
	}
	var pool [12]proto.NodeRef
	for i := range pool {
		pool[i] = proto.NodeRef{ID: id(), Addr: uint64(i + 1)}
	}
	level := func() uint8 { return [8]uint8{0, 0, 0, 1, 1, 2, 4, 6}[b.next()%8] }
	peer := func() proto.NodeRef {
		r := pool[b.next()%12]
		r.MaxLevel, r.Score = level(), uint16(b.next())
		return r
	}

	var c routeCase
	c.self = proto.NodeRef{ID: id(), Addr: 100, MaxLevel: level()}
	if v := b.next(); v%4 == 0 {
		c.self.Addr = uint64(v%12) + 1
	}
	c.tbl = rtable.New()
	for n := b.next() % 24; n > 0; n-- {
		r, where := peer(), b.next()%8
		var s *rtable.Set
		switch where {
		case 0, 1:
			s = &c.tbl.Level0
		case 2:
			s = c.tbl.BusLevel(1 + b.next()%5)
		case 3:
			s = &c.tbl.Children
		case 4:
			s = &c.tbl.NbrChildren
		case 5:
			s = &c.tbl.Superiors
		default:
			c.tbl.SetParent(r, 0)
			continue
		}
		s.Upsert(r, proto.FNeighbor, 0, c.tbl.NextVersion(), rtable.Direct)
	}
	if v := b.next(); v%4 != 0 {
		c.sender = uint64(v%12) + 1
	}
	c.fromParent = b.next()%4 == 0
	for n := b.next() % 4; n > 0; n-- {
		c.ex = append(c.ex, uint64(b.next()%12)+1)
	}
	c.req = &proto.LookupRequest{Origin: proto.NodeRef{ID: 1, Addr: 300}, Target: x, TTL: 255,
		Algo: proto.Algo(b.next() % 4)}
	if b.next()%16 == 15 {
		c.req.TTL = 0
	}
	c.req.Hops = [8]uint8{0, 0, 0, 0, 7, 7, 15, 100}[b.next()%8] // hierarchical, Euclidean, strict (height 6)
	for n := b.next() % (proto.MaxAlternates + 1); n > 0; n-- {
		r := peer()
		if b.next()%4 == 0 {
			r.Addr += 200 // an alternate the table does not hold
		}
		c.req.Alternates = append(c.req.Alternates, r)
	}
	return c
}

// sameStep reports whether two steps agree field by field, the
// alternates element by element, level and score included.
func sameStep(a, b Step) bool {
	if a.Action != b.Action || a.Next != b.Next || a.Found != b.Found || a.Strict != b.Strict ||
		len(a.Alternates) != len(b.Alternates) {
		return false
	}
	for i := range a.Alternates {
		if a.Alternates[i] != b.Alternates[i] {
			return false
		}
	}
	return true
}

// FuzzRouteEquivalence holds RouteWith to the decision it replaced
// (oldRoute): the same Step on every input, so no trajectory moves. The
// scratch is reused across the inputs of one run, as an event loop reuses
// its own, with the exclusions handed in per decision.
//
// Its seed corpus catches RouteWith with the owner check moved back behind
// greedy: an owner whose table holds a covering node forwards to it by the
// halving rule where the oracle Delivers self.
func FuzzRouteEquivalence(f *testing.F) {
	rng := rand.New(rand.NewSource(32))
	for i := 0; i < 256; i++ {
		data := make([]byte, 40+rng.Intn(120))
		rng.Read(data)
		f.Add(data)
	}
	p := params()
	var sc Scratch
	f.Fuzz(func(t *testing.T, data []byte) {
		c := decodeRouteCase(data)
		want := oldRoute(c.ex, c.self, c.tbl, c.req, c.fromParent, c.sender, p)
		sc.Excluded = c.ex
		got := RouteWith(&sc, c.self, c.tbl, c.req, c.fromParent, c.sender, p)
		if !sameStep(got, want) {
			t.Fatalf("decision diverged\nself %v sender %d fromParent %v excluded %v\nreq %+v\ntable %v\ncandidates %v\ngot  %+v\nwant %+v",
				c.self, c.sender, c.fromParent, c.ex, *c.req, c.tbl, c.tbl.Candidates(nil), got, want)
		}
	})
}
