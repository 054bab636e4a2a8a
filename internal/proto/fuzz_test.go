package proto

import (
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
func FuzzRoundTrip(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, m := range sampleMessages(rng) {
		f.Add(Encode(m))
	}
	// The two lookup-failover encodings by name, whatever the sample draw
	// happened to pick: the ack-wanted bit and the hop-ack status.
	f.Add(Encode(&LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Algo: AlgoNGSA, AckWanted: true}))
	f.Add(Encode(&LookupReply{From: NodeRef{ID: 9, Addr: 9}, ReqID: 7, Status: LookupHopAck}))
	// A few malformed shapes so the corpus exercises the error paths too.
	f.Add([]byte{})
	f.Add([]byte{wireMagic, wireVersion})
	f.Add([]byte{wireMagic, wireVersion, byte(tMaxMsgType)})

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			if m != nil {
				t.Fatalf("Decode returned both a message and error %v", err)
			}
			return
		}
		b := Encode(m)
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
