package proto

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"sync"
	"testing"
)

// TestEncodeAppendMatchesEncode fuzzes byte-equality between the fresh
// and appending encode paths over every message type: EncodeAppend onto
// an arbitrary prefix must produce exactly Encode's bytes after the
// prefix, leaving the prefix intact. This is the correctness contract
// that lets the UDP transport serialise a whole send queue into one
// arena and slice datagrams back out of it.
func TestEncodeAppendMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		prefix := make([]byte, rng.Intn(64))
		rng.Read(prefix)
		for _, m := range sampleMessages(rng) {
			fresh := Encode(m)
			appended := EncodeAppend(append([]byte(nil), prefix...), m)
			if !bytes.Equal(appended[:len(prefix)], prefix) {
				t.Fatalf("%v: EncodeAppend clobbered its prefix", m.Type())
			}
			if !bytes.Equal(appended[len(prefix):], fresh) {
				t.Fatalf("%v: EncodeAppend bytes differ from Encode:\n append: %x\n  fresh: %x",
					m.Type(), appended[len(prefix):], fresh)
			}
		}
	}
}

// TestEncodeAppendZeroAlloc pins the arena promise: appending into a
// buffer with sufficient capacity performs no allocation. WireSize, which
// the simulator calls on every send, allocates nothing either: the pooled
// cursor is all that keeps its walk off the heap.
func TestEncodeAppendZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under the race detector")
	}
	rng := rand.New(rand.NewSource(12))
	msgs := sampleMessages(rng)
	buf := make([]byte, 0, 1<<20)
	allocs := testing.AllocsPerRun(200, func() {
		buf = buf[:0]
		for _, m := range msgs {
			buf = EncodeAppend(buf, m)
		}
	})
	if allocs != 0 {
		t.Fatalf("EncodeAppend into a pre-sized arena allocated %.1f times per run", allocs)
	}
	size := 0
	allocs = testing.AllocsPerRun(200, func() {
		for _, m := range msgs {
			size += WireSize(m)
		}
	})
	if allocs != 0 {
		t.Fatalf("WireSize over every type allocated %.1f times per run", allocs)
	}
}

// pooledWireTypes is the authoritative list of message types DecodePooled
// must draw from a pool. It mirrors the pooled flags of the msgTypes rows;
// a type flagged there must be added here (and vice versa) or
// TestDecodePooledCoversTypes fails.
var pooledWireTypes = map[MsgType]bool{
	THello:           true,
	TPing:            true,
	TPong:            true,
	TJoinRequest:     true,
	TJoinRedirect:    true,
	TJoinAccept:      true,
	TElectionCall:    true,
	TChildReport:     true,
	TPromoteGrant:    true,
	TDemote:          true,
	TReparent:        true,
	TBusLinkReq:      true,
	TBusLinkAck:      true,
	TRingProbe:       true,
	TRingProbeAck:    true,
	TMergeIntro:      true,
	TLookupRequest:   true,
	TLookupReply:     true,
	TDHTStore:        true,
	TDHTStoreAck:     true,
	TDHTFetch:        true,
	TDHTFetchReply:   true,
	TDHTReplicate:    true,
	TDHTReplicateAck: true,
}

// TestEveryMsgTypeHasARow: a MsgType constant added without its msgTypes
// row leaves a zero row behind, which would print "" and never decode.
func TestEveryMsgTypeHasARow(t *testing.T) {
	names := map[string]MsgType{}
	for ty, row := range msgTypes {
		ty := MsgType(ty)
		if prev, dup := names[row.name]; row.name == "" || dup || ty.String() != row.name {
			t.Fatalf("MsgType %d: name %q (also MsgType %d)", ty, row.name, prev)
		}
		names[row.name] = ty
		if (row.fresh == nil) != (ty == TInvalid) {
			t.Fatalf("%v: only TInvalid may lack a constructor", ty)
		}
	}
	if want := fmt.Sprintf("msgtype(%d)", uint8(tMaxMsgType)); tMaxMsgType.String() != want {
		t.Fatalf("an unknown type prints %q, want %q", tMaxMsgType.String(), want)
	}
}

// TestDecodePooledCoversTypes pins every wire type to a working pooled
// decode: its registry row builds that type fresh and pooled, the pooled
// decode must re-encode to the identical bytes, and exactly the types
// listed in pooledWireTypes must carry the registry's pooled flag.
func TestDecodePooledCoversTypes(t *testing.T) {
	for ty, row := range msgTypes {
		ty := MsgType(ty)
		if ty == TInvalid {
			continue
		}
		if row.pooled != pooledWireTypes[ty] {
			t.Fatalf("%v: pooled row=%v, pooledWireTypes says %v", ty, row.pooled, pooledWireTypes[ty])
		}
		for _, pooled := range []bool{false, true} {
			m := newMessage(ty, pooled)
			if m == nil || m.Type() != ty {
				t.Fatalf("newMessage(%v, pooled=%v) returned %v", ty, pooled, m)
			}
			ReleaseDecoded(m)
		}
	}
	if newMessage(TInvalid, true) != nil || newMessage(tMaxMsgType, false) != nil {
		t.Fatal("a type without a row decodes")
	}

	// Round-trip every sample through the pooled path twice, so the second
	// pass decodes into recycled objects with dirty slice capacity.
	rng := rand.New(rand.NewSource(13))
	for pass := 0; pass < 2; pass++ {
		for _, m := range sampleMessages(rng) {
			b := Encode(m)
			got, err := DecodePooled(b)
			if err != nil {
				t.Fatalf("%v: pooled decode: %v", m.Type(), err)
			}
			if reenc := Encode(got); !bytes.Equal(reenc, b) {
				t.Fatalf("%v: pooled decode re-encodes differently:\n in: %x\nout: %x", m.Type(), b, reenc)
			}
			ReleaseDecoded(got)
		}
	}
}

// TestAcquireResetsEveryPooledType dirties a pooled object of every pooled
// row — every field non-zero, slices with spare capacity, the alternates
// aliasing another live slice — releases it and acquires it again. The
// acquired object has every field zero, its entries nil (the buffer went
// back to its class), its value buffer empty with at least the seed
// capacity (kept when it already had that much), and its alternates nil,
// so appending to them cannot write into the slice they aliased.
func TestAcquireResetsEveryPooledType(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	for ty, row := range msgTypes {
		if !row.pooled {
			continue
		}
		for _, spare := range []int{2, 2 * valueSeedCap} {
			m := Acquire(MsgType(ty))
			other := []NodeRef{{ID: 1, Addr: 1}, {ID: 2, Addr: 2}}
			buffers := dirty(reflect.ValueOf(m).Elem(), other, spare)
			ReleaseDecoded(m)
			got := Acquire(MsgType(ty))
			if got != m && !raceEnabled { // -race drops Puts at random
				t.Fatalf("%v: a released object did not come back", got.Type())
			}
			v := reflect.ValueOf(got).Elem()
			for i := 0; i < v.NumField(); i++ {
				f, name := v.Field(i), v.Type().Field(i).Name
				switch f.Interface().(type) {
				case []Entry:
					if !f.IsNil() {
						t.Fatalf("%v.%s: %d entries of capacity %d, want nil", got.Type(), name, f.Len(), f.Cap())
					}
				case []byte:
					if f.Len() != 0 || f.Cap() < valueSeedCap {
						t.Fatalf("%v.%s: len %d cap %d, want empty with cap >= %d", got.Type(), name, f.Len(), f.Cap(), valueSeedCap)
					}
					if kept := buffers[name]; got == m && spare > valueSeedCap && f.Pointer() != kept {
						t.Fatalf("%v.%s: a buffer of capacity %d was not kept", got.Type(), name, spare)
					}
				case []NodeRef:
					if !f.IsNil() {
						t.Fatalf("%v.%s: %d refs of capacity %d, want nil", got.Type(), name, f.Len(), f.Cap())
					}
					f.Set(reflect.Append(f, reflect.ValueOf(NodeRef{ID: 9, Addr: 9})))
					if other[0].Addr != 1 || other[1].Addr != 2 {
						t.Fatalf("%v.%s: appending wrote into the slice it aliased", got.Type(), name)
					}
				default:
					if !f.IsZero() {
						t.Fatalf("%v.%s = %v after Acquire, want zero", got.Type(), name, f.Interface())
					}
				}
			}
			ReleaseDecoded(got)
		}
	}
}

// TestAcquireFromManyGoroutines: shard workers acquire at once, every
// clearing walk runs on the one shared clearer cursor, and keep-alives
// take and give back entry buffers of every small class. Under -race this
// fails if a clearing walk ever writes the cursor.
func TestAcquireFromManyGoroutines(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for ty, row := range msgTypes {
					if row.pooled {
						m := Acquire(MsgType(ty))
						if p, ok := m.(*Ping); ok {
							p.Entries = append(EntryBuf(i%40), make([]Entry, i%40)...)
						}
						if WireSize(m) == 0 {
							t.Error("a pooled message sizes to nothing")
						}
						ReleaseDecoded(m)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// dirty sets every field of the message struct v non-zero: a ref list
// aliases other's first element with other's spare capacity behind it,
// entry and value buffers get spare capacity of spare. It returns each
// buffer's backing array by field name.
func dirty(v reflect.Value, other []NodeRef, spare int) map[string]uintptr {
	buffers := map[string]uintptr{}
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch p := f.Addr().Interface().(type) {
		case *NodeRef:
			*p = NodeRef{ID: 7, Addr: 7, MaxLevel: 7, Score: 7}
		case *Region:
			*p = Region{Lo: 7, Hi: 8}
		case *[]Entry:
			*p = append(make([]Entry, 0, spare), Entry{Ref: NodeRef{Addr: 7}, Version: 7})
		case *[]byte:
			*p = append(make([]byte, 0, spare), 7)
		case *[]NodeRef:
			*p = other[:1]
		case *SvcMessage:
			*p = Acquire(TDHTFetch).(SvcMessage)
		default:
			switch f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
				f.SetUint(1)
			default:
				panic(fmt.Sprintf("dirty: field %s of kind %v", v.Type().Field(i).Name, f.Kind()))
			}
		}
		if f.Kind() == reflect.Slice {
			buffers[v.Type().Field(i).Name] = f.Pointer()
		}
	}
	return buffers
}

// TestDecodePooledReleasesOnError checks that a failed pooled decode does
// not leak the acquired object mid-parse (it must go back to the pool) and
// reports the same error the fresh path does.
func TestDecodePooledReleasesOnError(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, m := range sampleMessages(rng) {
		full := Encode(m)
		for cut := headerSize; cut < len(full); cut++ {
			pm, err := DecodePooled(full[:cut])
			if err == nil {
				t.Fatalf("%v: pooled decode of %d/%d bytes succeeded", m.Type(), cut, len(full))
			}
			if pm != nil {
				t.Fatalf("%v: pooled decode returned both a message and %v", m.Type(), err)
			}
		}
	}
}

// TestPooledDecodeLifetime is the aliasing contract of DecodePooled: a
// decoded message owns its bytes (the source buffer may be reused
// immediately), two live pooled messages never share storage, and a
// message's contents stay stable until ReleaseDecoded — only after
// release may its storage be recycled into the next decode.
func TestPooledDecodeLifetime(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	mkPing := func(seq uint32) []byte {
		return Encode(&Ping{From: sampleRef(rng), Seq: seq, Entries: sampleEntries(rng, 6)})
	}

	// Decode A, then trash its source buffer: A must be unaffected.
	bufA := mkPing(1)
	mA, err := DecodePooled(bufA)
	if err != nil {
		t.Fatal(err)
	}
	pingA := mA.(*Ping)
	wantA := Encode(pingA)
	for i := range bufA {
		bufA[i] = 0xFF
	}
	if !bytes.Equal(Encode(pingA), wantA) {
		t.Fatal("pooled message aliases its source buffer")
	}

	// Decode B while A is live: they must come from distinct pool objects,
	// and writing through B must not reach A.
	mB, err := DecodePooled(mkPing(2))
	if err != nil {
		t.Fatal(err)
	}
	pingB := mB.(*Ping)
	if pingA == pingB {
		t.Fatal("two live pooled decodes returned the same object")
	}
	for i := range pingB.Entries {
		pingB.Entries[i].Version = 0xDEADBEEF
	}
	pingB.Seq = 999
	if !bytes.Equal(Encode(pingA), wantA) {
		t.Fatal("live pooled messages share entry storage")
	}
	ReleaseDecoded(mA)
	ReleaseDecoded(mB)

	// After release the storage is fair game: steady-state decode/release
	// cycles must reuse it rather than allocating per message.
	if raceEnabled {
		return // allocation counts are unreliable under the race detector
	}
	warm := mkPing(3)
	// Prime the pool so seed capacities exist before counting.
	if m, err := DecodePooled(warm); err != nil {
		t.Fatal(err)
	} else {
		ReleaseDecoded(m)
	}
	allocs := testing.AllocsPerRun(500, func() {
		m, err := DecodePooled(warm)
		if err != nil {
			t.Fatal(err)
		}
		ReleaseDecoded(m)
	})
	if allocs != 0 {
		t.Fatalf("steady-state pooled decode allocated %.1f times per message", allocs)
	}
}

// TestWhichTypesVouchForTheirSender pins Message.Sender type by type: the
// core protocol's messages return their From, which core takes as the
// sender's level claim; LookupRequest (it names an origin) and the DHT
// types return the zero ref. A wire type in neither list fails here, so a
// new one has to say which it is.
func TestWhichTypesVouchForTheirSender(t *testing.T) {
	vouch := map[MsgType]bool{
		THello: true, TPing: true, TPong: true, TJoinRequest: true, TJoinRedirect: true, TJoinAccept: true,
		TElectionCall: true, TParentClaim: true, TChildReport: true, TPromoteGrant: true, TDemote: true,
		TReparent: true, TBusLinkReq: true, TBusLinkAck: true, TLookupReply: true, TLeave: true,
		TRingProbe: true, TRingProbeAck: true, TMergeIntro: true,
		TLookupRequest: false, TDHTStore: false, TDHTStoreAck: false, TDHTFetch: false, TDHTFetchReply: false,
		TDHTReplicate: false, TDHTReplicateAck: false,
	}
	if len(vouch) != int(tMaxMsgType)-1 {
		t.Fatalf("%d types listed, the registry has %d", len(vouch), tMaxMsgType-1)
	}
	for ty := TInvalid + 1; ty < tMaxMsgType; ty++ {
		want, listed := vouch[ty]
		if !listed {
			t.Fatalf("%v is in neither list: does its From vouch for the sender's level?", ty)
		}
		// Every ref the message carries gets an address of its own, From's
		// is 1000: Sender must be From or nothing, never another field.
		m := newMessage(ty, false)
		v, addr := reflect.ValueOf(m).Elem(), uint64(1000)
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Type() == reflect.TypeOf(NodeRef{}) {
				f.Set(reflect.ValueOf(NodeRef{ID: 9, Addr: addr + uint64(i), MaxLevel: 3}))
				if v.Type().Field(i).Name == "From" && i != 0 {
					t.Fatalf("%v: From is field %d, the test assumes 0", ty, i)
				}
			}
		}
		got := m.Sender()
		if want && (got != NodeRef{ID: 9, Addr: 1000, MaxLevel: 3}) {
			t.Errorf("%v: Sender() = %v, want its From", ty, got)
		}
		if !want && !got.IsZero() {
			t.Errorf("%v: Sender() = %v, want the zero ref", ty, got)
		}
	}
	// svc.Plane keeps its response types as bits of a uint32.
	if tMaxMsgType > 32 {
		t.Fatalf("%d wire types no longer fit the service plane's 32-bit set", tMaxMsgType)
	}
}

// TestPooledCopyOwnsItsValue: the copy the service plane sends for one
// attempt of a request encodes as the request does and carries its own
// value buffer, so the caller may rewrite its request while the copy is in
// flight.
func TestPooledCopyOwnsItsValue(t *testing.T) {
	value := []byte("value")
	for _, req := range []SvcMessage{
		&DHTStore{ReqID: 7, Key: 9, Value: value, Base: 2, Cond: true},
		&DHTFetch{ReqID: 7, Key: 9, Local: true},
		&DHTReplicate{ReqID: 7, Key: 9, Value: value, Version: 3, Origin: 4, Cache: true},
	} {
		want := Encode(req)
		c := PooledCopy(req)
		value[0] = 'V'
		if c == req || !bytes.Equal(Encode(c), want) {
			t.Fatalf("%v: the copy is the request, or differs from it on the wire", req.Type())
		}
		value[0] = 'v'
		if !msgTypes[c.Type()].pooled {
			t.Fatalf("%v: the copy is not pooled", req.Type())
		}
		ReleaseDecoded(c)
	}
}
