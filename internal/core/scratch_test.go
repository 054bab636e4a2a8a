package core

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
)

// poison overwrites every buffer of the scratch, to capacity, with refs and
// entries no table holds: a step that read what an earlier step left in the
// scratch would put them on the wire.
func (sc *Scratch) poison() {
	junk := proto.NodeRef{ID: ^idspace.ID(0), Addr: 0xDEAD, MaxLevel: 7, Score: 0xFFFF}
	for _, buf := range [][]proto.NodeRef{sc.refs, sc.peers, sc.members} {
		full := buf[:cap(buf)]
		for i := range full {
			full[i] = junk
		}
	}
	for _, buf := range [][]proto.Entry{sc.entries, sc.up} {
		full := buf[:cap(buf)]
		for i := range full {
			full[i] = proto.Entry{Ref: junk, Level: 7, Flags: 0xFF, Version: ^uint32(0)}
		}
	}
	ids := sc.ids[:cap(sc.ids)]
	for i := range ids {
		ids[i] = ^idspace.ID(0)
	}
}

// scriptedExchange runs a parent (address 2, level 1) and its child
// (address 1) on one manually driven loop through keep-alive rounds, child
// reports acked with the superior list, a forwarded, held and failed-over
// lookup, and sweeps that expire the silent third parties both know; it
// returns every datagram either node sent, in order, as encoded on the
// wire. With shared
// the two nodes run on one Scratch, as the nodes of a simulated loop do —
// poisoned whenever the loop regains control — otherwise on one each.
func scriptedExchange(t *testing.T, shared bool) []byte {
	t.Helper()
	envs := [2]*fakeEnv{newFakeEnv(1), newFakeEnv(2)}
	if shared {
		envs[1].sc = envs[0].sc
	}
	at := func(f float64) idspace.ID { return idspace.FromFraction(f) }
	var nodes [2]*Node
	for i, id := range []idspace.ID{at(0.50), at(0.52)} {
		cfg := Defaults()
		cfg.ID = id
		nodes[i] = NewNode(cfg, envs[i])
	}
	child, parent := nodes[0], nodes[1]
	parent.InstallLevel(1)
	// Third parties that never speak: they expire during the script.
	parent.InstallBus(1, mkRef(at(0.20), 11, 1), mkRef(at(0.80), 12, 1))
	parent.InstallSuperiors(mkRef(at(0.30), 13, 2), mkRef(at(0.70), 14, 3))
	parent.InstallParent(mkRef(at(0.30), 13, 2))
	parent.InstallChildren(child.Ref(), mkRef(at(0.54), 15, 0))
	parent.InstallLevel0(child.Ref(), mkRef(at(0.54), 15, 0), mkRef(at(0.56), 16, 0))
	child.InstallLevel0(parent.Ref(), mkRef(at(0.48), 17, 0), mkRef(at(0.46), 18, 0))
	child.InstallParent(parent.Ref())
	child.Start()
	parent.Start()

	var wire []byte
	var pings, pongs int // the child's pings, the parent's pongs
	// pump delivers what the two nodes sent each other until both fall
	// silent, appending every datagram (to whomever) to the transcript.
	pump := func() {
		for moved := true; moved; {
			moved = false
			for i, env := range envs {
				for _, s := range env.drain() {
					moved = true
					switch ty := s.msg.Type(); {
					case i == 0 && ty == proto.TPing:
						pings++
					case i == 1 && ty == proto.TPong:
						pongs++
					}
					wire = append(wire, byte(env.addr), byte(s.to))
					wire = proto.EncodeAppend(wire, s.msg)
					if peer := nodes[1-i]; s.to == peer.Addr() {
						peer.HandleMessage(env.addr, s.msg)
					}
					if shared {
						envs[0].sc.poison()
					}
				}
			}
		}
	}
	step := func(d time.Duration) {
		for _, env := range envs {
			env.advance(d)
			if shared {
				envs[0].sc.poison()
			}
		}
		pump()
	}

	// A lookup the child can only hand up: the parent forwards it to its far
	// level-0 contact and holds it; the hops that stay silent are failed
	// over as the clock runs.
	found := 0
	child.Lookup(at(0.57), proto.AlgoG, func(r LookupResult) { found++ })
	pump()
	parent.HandleMessage(16, &proto.LookupReply{From: mkRef(at(0.56), 16, 0), Status: proto.LookupHopAck})
	for tick := 0; tick < 36; tick++ { // 9 s: every third party expires (TTL 6 s)
		step(250 * time.Millisecond)
	}
	if pings == 0 || pongs == 0 || parent.Stats.LookupsForwarded == 0 || parent.Stats.LookupFailovers == 0 {
		t.Fatalf("the script did not run: %d pings, %d pongs, parent %+v", pings, pongs, parent.Stats)
	}
	if parent.table.Superiors.Len() != 0 || parent.table.Bus[1] != nil {
		t.Fatalf("the silent third parties did not expire: %v", parent.table)
	}
	return append(wire, fmt.Sprintf("found=%d child=%v parent=%v", found, child.table, parent.table)...)
}

// TestSharedScratchEquivalence: two nodes driven by one loop through one
// Scratch put exactly the bytes on the wire that they put there with a
// Scratch each. Nothing a step leaves in the scratch is read by a later
// step of either node (the ownership rule of DESIGN.md §16).
func TestSharedScratchEquivalence(t *testing.T) {
	private := scriptedExchange(t, false)
	shared := scriptedExchange(t, true)
	if len(private) < 2000 {
		t.Fatalf("transcript is %d bytes: the script sent next to nothing", len(private))
	}
	if !bytes.Equal(private, shared) {
		i := 0
		for i < len(private) && i < len(shared) && private[i] == shared[i] {
			i++
		}
		t.Fatalf("transcripts diverge at byte %d of %d/%d", i, len(private), len(shared))
	}
}
