package proto

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzRoundTrip drives Decode with arbitrary datagrams, seeded with one
// valid encoding of every message type. For any input that decodes, the
// decoded message must re-encode and decode back to an identical value:
// the codec's canonical form is a fixed point, so nothing a peer can put
// on the wire produces a message the codec cannot faithfully reproduce.
// (Byte-identity of the re-encoding is not required — booleans decode any
// non-zero byte as true and re-encode as 1.)
//
// The transport decodes with DecodePooled, into recycled values whose
// slices still hold an earlier message's capacity and contents. So every
// input also goes through that path: it must fail exactly when Decode
// fails, with the same error, and otherwise re-encode to Decode's bytes
// before it is released.
func FuzzRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range sampleMessages(rng) {
		f.Add(Encode(m))
	}
	// The two lookup-failover encodings by name, whatever the sample draw
	// happened to pick: the ack-wanted bit and the hop-ack status.
	f.Add(Encode(&LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Algo: AlgoNGSA, AckWanted: true}))
	f.Add(Encode(&LookupReply{From: NodeRef{ID: 9, Addr: 9}, ReqID: 7, Status: LookupHopAck}))
	// A lookup carrying each service request it may take to an owner.
	f.Add(Encode(&LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Algo: AlgoG,
		Carried: &DHTFetch{From: NodeRef{ID: 9, Addr: 9}, ReqID: 3, Key: 42}}))
	f.Add(Encode(&LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Algo: AlgoNGSA, AckWanted: true,
		Alternates: []NodeRef{{ID: 1, Addr: 3}},
		Carried:    &DHTStore{From: NodeRef{ID: 9, Addr: 9}, ReqID: 4, Key: 42, Value: []byte("value"), Base: 2, Cond: true}}))
	// A request carrying a failover's verdict, plain and with a carried
	// service request behind it.
	f.Add(Encode(&LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Hops: 3, Algo: AlgoG, Silent: 5}))
	f.Add(Encode(&LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Algo: AlgoNGSA, AckWanted: true, Silent: 1 << 40,
		Alternates: []NodeRef{{ID: 1, Addr: 3}},
		Carried:    &DHTFetch{From: NodeRef{ID: 9, Addr: 9}, ReqID: 3, Key: 42}}))
	// A few malformed shapes so the corpus exercises the error paths too.
	f.Add([]byte{})
	f.Add([]byte{wireMagic, wireVersion})
	f.Add([]byte{wireMagic, wireVersion, byte(tMaxMsgType)})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		pm, perr := DecodePooled(data)
		if (err == nil) != (perr == nil) || (err != nil && err.Error() != perr.Error()) {
			t.Fatalf("Decode error %v, DecodePooled error %v", err, perr)
		}
		if err != nil {
			if m != nil || pm != nil {
				t.Fatalf("a decode returned both a message and error %v", err)
			}
			return
		}
		b := Encode(m)
		if pb := Encode(pm); !bytes.Equal(pb, b) {
			t.Fatalf("%v: pooled decode re-encodes differently:\n fresh: %x\npooled: %x", m.Type(), b, pb)
		}
		ReleaseDecoded(pm)
		if len(b) != WireSize(m) {
			t.Fatalf("%v: WireSize=%d but re-encoded %d bytes", m.Type(), WireSize(m), len(b))
		}
		m2, err := Decode(b)
		if err != nil {
			t.Fatalf("%v: re-decode of canonical encoding failed: %v", m.Type(), err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("%v: canonical round-trip mismatch:\n in: %#v\nout: %#v", m.Type(), m, m2)
		}
	})
}
