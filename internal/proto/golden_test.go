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
}
