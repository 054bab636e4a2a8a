package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"treep/internal/idspace"
)

func sampleRef(rng *rand.Rand) NodeRef {
	return NodeRef{
		ID:       idspace.ID(rng.Uint64()),
		Addr:     rng.Uint64() | 1, // non-zero
		MaxLevel: uint8(rng.Intn(8)),
		Score:    uint16(rng.Intn(65536)),
	}
}

func sampleEntries(rng *rand.Rand, n int) []Entry {
	if n == 0 {
		return nil
	}
	out := make([]Entry, n)
	for i := range out {
		out[i] = Entry{
			Ref:     sampleRef(rng),
			Level:   uint8(rng.Intn(8)),
			Flags:   EntryFlag(rng.Intn(32)),
			Version: rng.Uint32(),
			AgeDs:   uint16(rng.Intn(65536)),
		}
	}
	return out
}

func sampleRefs(rng *rand.Rand, n int) []NodeRef {
	if n == 0 {
		return nil
	}
	out := make([]NodeRef, n)
	for i := range out {
		out[i] = sampleRef(rng)
	}
	return out
}

// sampleMessages returns one randomised instance of every message type.
func sampleMessages(rng *rand.Rand) []Message {
	val := make([]byte, rng.Intn(64))
	rng.Read(val)
	if len(val) == 0 {
		val = nil
	}
	return []Message{
		&Hello{From: sampleRef(rng), MaxChildren: uint8(rng.Intn(32))},
		&Ping{From: sampleRef(rng), Seq: rng.Uint32(), Entries: sampleEntries(rng, rng.Intn(5))},
		&Pong{From: sampleRef(rng), Seq: rng.Uint32(), Entries: sampleEntries(rng, rng.Intn(5))},
		&JoinRequest{From: sampleRef(rng)},
		&JoinRedirect{From: sampleRef(rng), Closer: sampleRef(rng)},
		&JoinAccept{From: sampleRef(rng), Left: sampleRef(rng), Right: NodeRef{}, Parent: sampleRef(rng)},
		&ElectionCall{From: sampleRef(rng), Level: uint8(rng.Intn(8))},
		&ParentClaim{From: sampleRef(rng), Level: 2, Region: Region{Lo: 5, Hi: idspace.MaxID - 5}},
		&ChildReport{From: sampleRef(rng), Degree: uint8(rng.Intn(8))},
		&PromoteGrant{From: sampleRef(rng), Level: 3, Region: Region{Lo: 0, Hi: 99}, Left: sampleRef(rng), Right: NodeRef{}},
		&Demote{From: sampleRef(rng), Level: 1, Successor: sampleRef(rng)},
		&BusLinkReq{From: sampleRef(rng), Level: 4},
		&BusLinkAck{From: sampleRef(rng), Level: 4, Left: sampleRef(rng), Right: sampleRef(rng)},
		&LookupRequest{Origin: sampleRef(rng), Target: idspace.ID(rng.Uint64()), ReqID: rng.Uint64(),
			TTL: uint8(rng.Intn(256)), Hops: uint8(rng.Intn(256)), Algo: Algo(rng.Intn(3)),
			AckWanted: rng.Intn(2) == 0, Alternates: sampleRefs(rng, rng.Intn(4))},
		&LookupReply{From: sampleRef(rng), ReqID: rng.Uint64(), Status: LookupStatus(rng.Intn(3)),
			Best: sampleRef(rng), Hops: uint8(rng.Intn(256))},
		&DHTStore{From: sampleRef(rng), ReqID: rng.Uint64(), Key: idspace.ID(rng.Uint64()), Value: val,
			Base: rng.Uint64(), Cond: rng.Intn(2) == 0},
		&DHTStoreAck{From: sampleRef(rng), ReqID: rng.Uint64(), Status: StoreStatus(rng.Intn(2)),
			Version: rng.Uint64(), Origin: rng.Uint64()},
		&DHTFetch{From: sampleRef(rng), ReqID: rng.Uint64(), Key: idspace.ID(rng.Uint64()), Local: rng.Intn(2) == 0},
		&DHTFetchReply{From: sampleRef(rng), ReqID: rng.Uint64(), Found: rng.Intn(2) == 0, Value: val,
			Version: rng.Uint64(), Origin: rng.Uint64()},
		&DHTReplicate{From: sampleRef(rng), ReqID: rng.Uint64(), Key: idspace.ID(rng.Uint64()), Value: val,
			Version: rng.Uint64(), Origin: rng.Uint64()},
		&DHTReplicateAck{From: sampleRef(rng), ReqID: rng.Uint64(), Stored: rng.Intn(2) == 0},
		&Reparent{From: sampleRef(rng), NewParent: sampleRef(rng), AgeDs: uint16(rng.Intn(65536))},
		&Leave{From: sampleRef(rng)},
		&RingProbe{From: sampleRef(rng), Origin: sampleRef(rng), Left: rng.Intn(2) == 0,
			TTL: uint8(rng.Intn(256)), AgeDs: uint16(rng.Intn(65536))},
		&RingProbeAck{From: sampleRef(rng), Left: rng.Intn(2) == 0, Hops: uint8(rng.Intn(256))},
		&MergeIntro{From: sampleRef(rng), Peer: sampleRef(rng), AgeDs: uint16(rng.Intn(65536))},
	}
}

// TestSampleMessagesCoverEveryType guards the sample set (and with it the
// fuzz corpus, which seeds from it) against drifting from the MsgType
// enumeration when message types are added.
func TestSampleMessagesCoverEveryType(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	seen := map[MsgType]bool{}
	for _, m := range sampleMessages(rng) {
		seen[m.Type()] = true
	}
	for ty := TInvalid + 1; ty < tMaxMsgType; ty++ {
		if !seen[ty] {
			t.Errorf("no sample message for type %v", ty)
		}
	}
}

func TestRoundTripAllTypes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		for _, m := range sampleMessages(rng) {
			b := Encode(m)
			got, err := Decode(b)
			if err != nil {
				t.Fatalf("%v: decode: %v", m.Type(), err)
			}
			if !reflect.DeepEqual(m, got) {
				t.Fatalf("%v: round-trip mismatch:\n in: %#v\nout: %#v", m.Type(), m, got)
			}
		}
	}
}

func TestWireSizeExact(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		for _, m := range sampleMessages(rng) {
			b := Encode(m)
			if len(b) != WireSize(m) {
				t.Fatalf("%v: WireSize=%d but encoded %d bytes", m.Type(), WireSize(m), len(b))
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := Decode(nil); !errors.Is(err, ErrShort) {
		t.Errorf("nil: %v", err)
	}
	if _, err := Decode([]byte{wireMagic, wireVersion}); !errors.Is(err, ErrShort) {
		t.Errorf("2 bytes: %v", err)
	}
	if _, err := Decode([]byte{0xFF, wireVersion, byte(THello)}); !errors.Is(err, ErrMagic) {
		t.Errorf("bad magic: %v", err)
	}
	if _, err := Decode([]byte{wireMagic, 99, byte(THello)}); !errors.Is(err, ErrVersion) {
		t.Errorf("bad version: %v", err)
	}
	if _, err := Decode([]byte{wireMagic, wireVersion, 0}); !errors.Is(err, ErrType) {
		t.Errorf("type 0: %v", err)
	}
	if _, err := Decode([]byte{wireMagic, wireVersion, byte(tMaxMsgType)}); !errors.Is(err, ErrType) {
		t.Errorf("type max: %v", err)
	}
}

func TestDecodeTruncatedBodies(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range sampleMessages(rng) {
		full := Encode(m)
		for cut := headerSize; cut < len(full); cut++ {
			if _, err := Decode(full[:cut]); err == nil {
				t.Fatalf("%v: truncation to %d/%d bytes decoded without error", m.Type(), cut, len(full))
			}
		}
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	m := &Hello{From: NodeRef{ID: 1, Addr: 2}}
	b := append(Encode(m), 0xAB)
	if _, err := Decode(b); !errors.Is(err, ErrTrail) {
		t.Fatalf("trailing byte: %v", err)
	}
}

func TestDecodeRandomGarbageNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 5000; i++ {
		b := make([]byte, rng.Intn(128))
		rng.Read(b)
		// Force plausible headers half the time so bodies get exercised.
		if len(b) >= 3 && i%2 == 0 {
			b[0] = wireMagic
			b[1] = wireVersion
			b[2] = byte(1 + rng.Intn(int(tMaxMsgType)-1))
		}
		_, _ = Decode(b) // must not panic
	}
}

func TestHostileListLength(t *testing.T) {
	// A Ping whose entry count claims 65535 entries but has no body must be
	// rejected without allocating.
	b := Encode(&Ping{From: NodeRef{ID: 1, Addr: 1}, Seq: 7})
	binary.BigEndian.PutUint16(b[len(b)-2:], 65535)
	if _, err := Decode(b); err == nil {
		t.Fatal("hostile length accepted")
	}
}

// TestAlternatesBound: a lookup request carrying MaxAlternates alternates
// decodes on both paths; one more is malformed on both.
func TestAlternatesBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{MaxAlternates, MaxAlternates + 1} {
		b := Encode(&LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Algo: AlgoNGSA,
			Alternates: sampleRefs(rng, n)})
		for name, decode := range map[string]func([]byte) (Message, error){"Decode": Decode, "DecodePooled": DecodePooled} {
			m, err := decode(b)
			switch {
			case n > MaxAlternates && err == nil:
				t.Fatalf("%s accepted %d alternates", name, n)
			case n <= MaxAlternates && (err != nil || len(m.(*LookupRequest).Alternates) != n):
				t.Fatalf("%s of %d alternates: %v", name, n, err)
			}
		}
	}
}

func TestCorruptionDetectionBitFlips(t *testing.T) {
	// Flipping any single header bit must fail; body flips may still parse
	// (no checksum — UDP provides one) but must never panic.
	m := &LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Algo: AlgoNGSA,
		Alternates: []NodeRef{{ID: 1, Addr: 3}}}
	orig := Encode(m)
	for bit := 0; bit < len(orig)*8; bit++ {
		b := bytes.Clone(orig)
		b[bit/8] ^= 1 << (bit % 8)
		_, _ = Decode(b)
	}
}

// TestLookupAckWantedWire pins the ack-wanted bit to the top bit of the
// Algo byte: the encoding keeps its size, a request without the bit is
// byte-identical to what a pre-failover peer sent (so old encodings still
// decode, to AckWanted false), and the bit never leaks into Algo.
func TestLookupAckWantedWire(t *testing.T) {
	for _, algo := range []Algo{AlgoG, AlgoNG, AlgoNGSA} {
		plain := &LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Hops: 3, Algo: algo,
			Alternates: []NodeRef{{ID: 1, Addr: 3}}}
		asked := *plain
		asked.AckWanted = true
		old, b := Encode(plain), Encode(&asked)
		if len(old) != len(b) {
			t.Fatalf("%v: ack-wanted changed the size: %d vs %d", algo, len(old), len(b))
		}
		algoAt := headerSize + nodeRefSize + 8 + 8 + 1 + 1
		if old[algoAt] != uint8(algo) {
			t.Fatalf("%v: old encoding's algo byte is %#x", algo, old[algoAt])
		}
		for i := range old {
			if want := old[i]; i == algoAt {
				if b[i] != want|0x80 {
					t.Fatalf("%v: algo byte %#x, want %#x", algo, b[i], want|0x80)
				}
			} else if b[i] != want {
				t.Fatalf("%v: byte %d differs", algo, i)
			}
		}
		for _, c := range []struct {
			wire []byte
			want *LookupRequest
		}{{old, plain}, {b, &asked}} {
			got, err := Decode(c.wire)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Fatalf("%v: decoded %+v, want %+v", algo, got, c.want)
			}
		}
	}
}

// TestLookupCarriesOnlyRequests: a lookup carries a DHTFetch or a
// DHTStore, round-trips it through both decode paths, and is rejected when
// it carries anything else (another lookup, a response) or a store too
// large for one datagram. A plain lookup's bytes do not change.
func TestLookupCarriesOnlyRequests(t *testing.T) {
	plain := &LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8, Hops: 2, Algo: AlgoG}
	algoAt := headerSize + nodeRefSize + 8 + 8 + 1 + 1
	carrying := func(m SvcMessage) []byte {
		req := *plain
		req.Carried = m
		return Encode(&req)
	}
	for _, m := range []SvcMessage{
		&DHTFetch{From: NodeRef{ID: 5, Addr: 5}, ReqID: 3, Key: 42, Local: true},
		&DHTStore{From: NodeRef{ID: 5, Addr: 5}, ReqID: 3, Key: 42, Value: []byte("v"), Base: 1, Cond: true},
	} {
		b, want := carrying(m), Encode(plain)
		if !bytes.Equal(b[:algoAt], want[:algoAt]) || b[algoAt] != want[algoAt]|lookupCarries ||
			!bytes.Equal(b[algoAt+1:len(want)], want[algoAt+1:]) {
			t.Fatalf("%v: the carrying lookup's own fields moved: %x", m.Type(), b[:len(want)])
		}
		if rest := b[len(want):]; rest[0] != uint8(m.Type()) || !bytes.Equal(rest[1:], Encode(m)[headerSize:]) {
			t.Fatalf("%v: carried as %x", m.Type(), rest)
		}
		for _, dec := range []func([]byte) (Message, error){Decode, DecodePooled} {
			got, err := dec(b)
			if err != nil {
				t.Fatalf("%v: %v", m.Type(), err)
			}
			if c := got.(*LookupRequest).Carried; !reflect.DeepEqual(c, m) {
				t.Fatalf("%v: carried %#v, want %#v", m.Type(), c, m)
			}
			ReleaseDecoded(got)
		}
	}

	// What may not ride: a lookup, a response, and a datagram's worth of
	// value. Each encodes (the encoder does not judge) and must not decode.
	for _, c := range []struct {
		name string
		wire []byte
		want error
	}{
		{"a lookup", carryingAny(plain, plain), ErrCarried},
		{"a response", carryingAny(plain, &DHTFetchReply{ReqID: 3, Found: true, Value: []byte("v")}), ErrCarried},
		{"a value past the datagram bound", carrying(&DHTStore{ReqID: 3, Key: 42, Value: make([]byte, MaxDatagram-60)}), ErrSize},
	} {
		for _, dec := range []func([]byte) (Message, error){Decode, DecodePooled} {
			if m, err := dec(c.wire); !errors.Is(err, c.want) || m != nil {
				t.Fatalf("a lookup carrying %s: decoded %v, %v; want %v", c.name, m, err, c.want)
			}
		}
	}
	// The largest store that fits still goes.
	fits := &DHTStore{ReqID: 3, Key: 42}
	fits.Value = make([]byte, MaxDatagram-len(carrying(fits)))
	if b := carrying(fits); len(b) != MaxDatagram {
		t.Fatalf("the largest carrying lookup is %d bytes", len(b))
	} else if _, err := Decode(b); err != nil {
		t.Fatalf("a carrying lookup of exactly MaxDatagram bytes: %v", err)
	}
}

// carryingAny encodes req with the carried-request flag set and m's type
// and body after it, whatever m is: the wire a hostile peer could send.
func carryingAny(req *LookupRequest, m Message) []byte {
	b := Encode(req)
	b[headerSize+nodeRefSize+8+8+1+1] |= lookupCarries
	b = append(b, uint8(m.Type()))
	return append(b, Encode(m)[headerSize:]...)
}

// TestLookupHopAckRoundTrip: the hop acknowledgement is a LookupReply
// with its own status, through both decode paths.
func TestLookupHopAckRoundTrip(t *testing.T) {
	ack := Acquire(TLookupReply).(*LookupReply)
	ack.From, ack.ReqID, ack.Status = NodeRef{ID: 5, Addr: 6, MaxLevel: 2}, 77, LookupHopAck
	b := Encode(ack)
	for _, dec := range []func([]byte) (Message, error){Decode, DecodePooled} {
		got, err := dec(b)
		if err != nil {
			t.Fatal(err)
		}
		if r := got.(*LookupReply); r.Status != LookupHopAck || r.ReqID != 77 || r.From != ack.From {
			t.Fatalf("decoded %+v", r)
		}
		ReleaseDecoded(got)
	}
}

func TestQuantizeScore(t *testing.T) {
	cases := []struct {
		in   float64
		want uint16
	}{
		{-1, 0}, {0, 0}, {1, 65535}, {2, 65535},
	}
	for _, c := range cases {
		if got := QuantizeScore(c.in); got != c.want {
			t.Errorf("QuantizeScore(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	for _, s := range []float64{0.1, 0.5, 0.9} {
		back := float64(QuantizeScore(s)) / 65535
		if diff := back - s; diff > 1e-4 || diff < -1e-4 {
			t.Errorf("quantise roundtrip %v -> %v", s, back)
		}
	}
}

func TestNodeRefZero(t *testing.T) {
	var z NodeRef
	if !z.IsZero() {
		t.Error("zero ref should be zero")
	}
	if (NodeRef{Addr: 1}).IsZero() {
		t.Error("ref with addr should not be zero")
	}
	if z.String() != "ref(-)" {
		t.Errorf("zero ref string %q", z.String())
	}
}

func TestRegionConversion(t *testing.T) {
	r := idspace.Region{Lo: 3, Hi: 9}
	if FromIDSpace(r).ToIDSpace() != r {
		t.Error("region conversion roundtrip")
	}
}

func TestMsgTypeString(t *testing.T) {
	if THello.String() != "hello" || TLookupRequest.String() != "lookup-request" {
		t.Error("known names")
	}
	if MsgType(200).String() != "msgtype(200)" {
		t.Errorf("unknown name: %q", MsgType(200).String())
	}
}

func TestAlgoString(t *testing.T) {
	if AlgoG.String() != "G" || AlgoNG.String() != "NG" || AlgoNGSA.String() != "NGSA" {
		t.Error("algo names")
	}
	if Algo(9).String() != "algo(9)" {
		t.Error("unknown algo name")
	}
}

func BenchmarkEncodeLookupRequest(b *testing.B) {
	m := &LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Encode(m)
	}
}

func BenchmarkDecodeLookupRequest(b *testing.B) {
	buf := Encode(&LookupRequest{Origin: NodeRef{ID: 9, Addr: 9}, Target: 42, ReqID: 7, TTL: 8})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(buf); err != nil {
			b.Fatal(err)
		}
	}
}
