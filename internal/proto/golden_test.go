package proto

import (
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"
)

// TestWireLayoutGolden pins the wire layout of every message type to a
// digest: SHA-256 over the encodings of 500 rounds of sampled messages, and
// the sum of their WireSize values. Round-trip tests cannot see a field that
// moved the same way on both the encoding and the decoding side; this test
// fails on any change to the bytes a peer puts on the wire. Change the
// constants only together with the wire version.
func TestWireLayoutGolden(t *testing.T) {
	const (
		wantDigest = "2a9c02c9b8c4b1c589ce267fa502c989724e769c6f9b5bc10142309a38d1a5bc"
		wantSize   = 643626
	)
	rng := rand.New(rand.NewSource(99))
	h := sha256.New()
	var buf []byte
	size := 0
	for round := 0; round < 500; round++ {
		for _, m := range sampleMessages(rng) {
			buf = EncodeAppend(buf[:0], m)
			h.Write(buf)
			size += WireSize(m)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != wantDigest {
		t.Errorf("wire digest %s, want %s", got, wantDigest)
	}
	if size != wantSize {
		t.Errorf("summed WireSize %d, want %d", size, wantSize)
	}

	// The sampled messages never carry a failover's verdict. A request
	// that does has bit 0x20 set in its Algo byte (0xa2: NGSA, ack wanted)
	// and the silent peer's address right after it; without the verdict
	// the same request is that byte 0x82 and eight bytes shorter.
	req := &LookupRequest{Origin: NodeRef{ID: 1, Addr: 2, MaxLevel: 3, Score: 4}, Target: 5, ReqID: 6, TTL: 7, Hops: 8,
		Algo: AlgoNGSA, AckWanted: true, Silent: 9, Alternates: []NodeRef{{ID: 10, Addr: 11, MaxLevel: 1, Score: 12}}}
	for _, row := range []struct {
		silent uint64
		want   string
	}{
		{9, "54010e" + "0000000000000001" + "0000000000000002" + "03" + "0004" + "0000000000000005" + "0000000000000006" + "07" + "08" +
			"a2" + "0000000000000009" + "0001" + "000000000000000a" + "000000000000000b" + "01" + "000c"},
		{0, "54010e" + "0000000000000001" + "0000000000000002" + "03" + "0004" + "0000000000000005" + "0000000000000006" + "07" + "08" +
			"82" + "0001" + "000000000000000a" + "000000000000000b" + "01" + "000c"},
	} {
		req.Silent = row.silent
		if got := hex.EncodeToString(Encode(req)); got != row.want {
			t.Errorf("Silent=%d encodes as\n%s, want\n%s", row.silent, got, row.want)
		}
	}
}
