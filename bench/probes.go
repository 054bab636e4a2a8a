package main

import (
	"time"

	"treep/internal/idspace"
	"treep/internal/netsim"
	"treep/internal/proto"
	"treep/internal/routing"
	"treep/internal/rtable"
	"treep/internal/sim"
	"treep/internal/simrt"
)

// Micro-probes: one tight loop per layer whose exported API lets the
// benchmark build a fixture from outside the package. Each reports the
// floor (fastest of five batches) in ns per call. They are per-layer
// context for the CPU ledger, not gated figures: a probe says what one
// call costs, the ledger says how much of the workload is such calls.
//
// Skipped, because no fixture can be built from outside: core (a
// protocol step needs a node wired to an environment and a peer that
// answers — that is what the sim workloads are), svc and dht (a call is
// a lookup plus a round trip, again a workload), simrt (a binding, no
// call of its own), udptransport below the socket (its batch I/O is
// unexported; the loopback round trip in udp-mixed stands in).

const probeBatches = 5

// probeFloor runs batch (which performs calls operations) probeBatches
// times and returns the fastest batch in ns per call.
func probeFloor(calls int, batch func()) float64 {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < probeBatches; i++ {
		t0 := time.Now()
		batch()
		if d := time.Since(t0); d < best {
			best = d
		}
	}
	return float64(best) / float64(calls)
}

// probeSink keeps results alive so the compiler cannot drop the calls.
var probeSink int

// runProbes measures every in-process probe. The fixtures use a fixed
// seed: a probe compares code, not inputs.
func runProbes(v values) {
	const n = 20000

	// sim: schedule-and-fire through the pooled closure-free path, the
	// one netsim uses per datagram.
	k := sim.New(1)
	h := func(interface{}) { probeSink++ }
	v["sim.event_ns"] = probeFloor(n, func() {
		for i := 0; i < n; i++ {
			k.Post(time.Duration(10+i%50)*time.Millisecond, h, nil)
		}
		_ = k.Run()
	})

	// netsim: one datagram from send to handler, default latency model.
	nk := sim.New(1)
	net := netsim.New(nk)
	a := net.Attach(func(netsim.Addr, interface{}, int) { probeSink++ })
	b := net.Attach(func(netsim.Addr, interface{}, int) { probeSink++ })
	v["netsim.deliver_ns"] = probeFloor(n, func() {
		for i := 0; i < n; i++ {
			net.Send(a, b, nil, 64)
		}
		_ = nk.Run()
	})

	// A settled 256-peer overlay supplies real routing tables.
	c := simrt.New(simrt.Options{N: 256, Seed: 1, Bulk: true})
	c.StartAll()
	c.Run(6 * time.Second)
	node := c.Nodes[len(c.Nodes)/2]
	tbl := node.Table()
	now := c.Now()

	// proto: the three messages the workloads send most.
	ref := node.Ref()
	entries := tbl.AppendDelta(nil, 0, now)
	if len(entries) > 8 {
		entries = entries[:8]
	}
	msgs := map[string]proto.Message{
		"ping":   &proto.Ping{From: ref, Seq: 7, Entries: entries},
		"lookup": &proto.LookupRequest{Origin: ref, Target: idspace.FromFraction(0.3), ReqID: 9, TTL: 255, Algo: proto.AlgoG},
		"store":  &proto.DHTStore{From: ref, ReqID: 11, Key: idspace.FromFraction(0.7), Value: valueFor(1, 1)},
	}
	for name, m := range msgs {
		buf := make([]byte, 0, 2048)
		v["proto.encode_"+name+"_ns"] = probeFloor(n, func() {
			for i := 0; i < n; i++ {
				buf = proto.EncodeAppend(buf[:0], m)
			}
		})
		wire := proto.EncodeAppend(nil, m)
		v["proto.decode_"+name+"_ns"] = probeFloor(n, func() {
			for i := 0; i < n; i++ {
				d, err := proto.DecodePooled(wire)
				if err != nil {
					panic("bench: probe message does not decode: " + err.Error())
				}
				proto.ReleaseDecoded(d)
			}
		})
	}

	// rtable: refresh a known peer, insert-and-remove a new one, and the
	// expiry sweep when nothing has expired (the common tick).
	peers := tbl.Level0.Refs()
	v["rtable.touch_ns"] = probeFloor(n, func() {
		for i := 0; i < n; i++ {
			tbl.Touch(peers[i%len(peers)].Addr, now)
		}
	})
	set := rtable.NewSet()
	v["rtable.insert_ns"] = probeFloor(n, func() {
		for i := 0; i < n; i += 64 {
			for j := 0; j < 64; j++ {
				r := proto.NodeRef{ID: idspace.ID(uint64(j) * 0x9e3779b97f4a7c15), Addr: uint64(1000 + j)}
				set.Upsert(r, 0, now, 1, rtable.Direct)
			}
			for j := 0; j < 64; j++ {
				set.Remove(uint64(1000 + j))
			}
		}
	})
	v["rtable.sweep_ns"] = probeFloor(n/10, func() {
		for i := 0; i < n/10; i++ {
			if r := tbl.Sweep(now, time.Hour); !r.Empty() {
				probeSink++
			}
		}
	})

	// routing: one forwarding decision on a settled table.
	var scratch routing.Scratch
	params := node.Config().Routing
	req := &proto.LookupRequest{Origin: ref, ReqID: 1, TTL: 255, Algo: proto.AlgoG}
	v["routing.decide_ns"] = probeFloor(n, func() {
		for i := 0; i < n; i++ {
			req.Target = idspace.ID(uint64(i) * 0x9e3779b97f4a7c15)
			step := routing.RouteWith(&scratch, ref, tbl, req, false, 0, params)
			probeSink += int(step.Action)
		}
	})
}
