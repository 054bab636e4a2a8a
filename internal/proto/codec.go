package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"treep/internal/idspace"
)

// Wire format: a 3-byte header (magic 'T', version, message type) followed
// by the fixed-layout body. Integers are big-endian. Variable-length
// sections (entry lists, DHT values) carry a uint16 count/length prefix.
const (
	wireMagic   = 0x54 // 'T'
	wireVersion = 1
	headerSize  = 3
)

// Codec errors.
var (
	ErrShort   = errors.New("proto: truncated message")
	ErrMagic   = errors.New("proto: bad magic byte")
	ErrVersion = errors.New("proto: unsupported protocol version")
	ErrType    = errors.New("proto: unknown message type")
	ErrTrail   = errors.New("proto: trailing bytes after message body")
)

// maxListLen bounds decoded list lengths; a datagram cannot legitimately
// carry more (64 KiB / 19-byte refs), and the bound stops hostile length
// prefixes from forcing huge allocations.
const maxListLen = 4096

// MaxDatagram is the largest wire encoding a transport will carry: the
// maximum UDP-over-IPv4 payload (65535 - 20 IP - 8 UDP). The simulator
// has no packet size limit, but the real-socket plane rejects larger
// encodes instead of letting the kernel truncate or refuse them silently.
const MaxDatagram = 65507

// MaxKeepAliveEntries is how many entries a Ping/Pong can carry and still
// fit in MaxDatagram. Keep-alive composition clamps to this bound so an
// update can never compose an unsendable datagram (in practice updates
// are a few dozen entries; the clamp is the safety rail, not the norm).
const MaxKeepAliveEntries = (MaxDatagram - headerSize - nodeRefSize - 4 - 2) / entrySize

// Encode serialises a message into a fresh buffer, header included.
func Encode(m Message) []byte {
	return EncodeAppend(make([]byte, 0, headerSize+m.EncodedSize()), m)
}

// writerPool and readerPool recycle the codec cursors. A stack-local
// cursor would be free, but escape analysis can't keep one on the stack
// across the encodeBody/decodeBody interface call, so without pooling
// every encode and decode pays one heap allocation just for the cursor.
var (
	writerPool = sync.Pool{New: func() interface{} { return new(writer) }}
	readerPool = sync.Pool{New: func() interface{} { return new(reader) }}
)

// EncodeAppend serialises a message, header included, appending to dst and
// returning the extended slice. With a dst of sufficient capacity the
// encode allocates nothing, which is what lets the batched UDP transport
// serialise a whole send queue into one recycled arena.
func EncodeAppend(dst []byte, m Message) []byte {
	w := writerPool.Get().(*writer)
	w.buf = dst
	w.u8(wireMagic)
	w.u8(wireVersion)
	w.u8(uint8(m.Type()))
	m.encodeBody(w)
	out := w.buf
	w.buf = nil
	writerPool.Put(w)
	return out
}

// Decode parses one datagram into a fresh message value. The whole buffer
// must be consumed: trailing garbage is an error, as a corrupted datagram
// must not half-parse.
func Decode(b []byte) (Message, error) {
	return decode(b, false)
}

// DecodePooled parses one datagram like Decode, but draws pooled message
// types (keep-alives, probes, DHT responses) from their pools and reuses
// the pooled value's slice capacity, so a transport's steady-state decode
// path allocates nothing. Every decoded field is copied out of b: the
// caller may reuse b the moment DecodePooled returns. The returned
// message must be handed back via ReleaseDecoded once dispatch is done
// (non-recyclable types make that a no-op).
func DecodePooled(b []byte) (Message, error) {
	return decode(b, true)
}

// ReleaseDecoded returns a DecodePooled message to its pool after the
// handler is finished with it — the transport's end-of-dispatch hook,
// mirroring netsim's end-of-datagram release. The message (and any slice
// it carries) must not be touched afterwards.
func ReleaseDecoded(m Message) {
	if r, ok := m.(Recyclable); ok {
		r.Recycle()
	}
}

func decode(b []byte, pooled bool) (Message, error) {
	if len(b) < headerSize {
		return nil, ErrShort
	}
	if b[0] != wireMagic {
		return nil, ErrMagic
	}
	if b[1] != wireVersion {
		return nil, fmt.Errorf("%w: %d", ErrVersion, b[1])
	}
	m := newMessage(MsgType(b[2]), pooled)
	if m == nil {
		return nil, fmt.Errorf("%w: %d", ErrType, b[2])
	}
	r := readerPool.Get().(*reader)
	r.buf, r.err = b[headerSize:], nil
	m.decodeBody(r)
	if r.err == nil && len(r.buf) != 0 {
		r.err = ErrTrail
	}
	err := r.err
	r.buf, r.err = nil, nil
	readerPool.Put(r)
	if err != nil {
		if pooled {
			ReleaseDecoded(m)
		}
		return nil, err
	}
	return m, nil
}

// WireSize returns the total datagram size for a message, header included.
// The simulator charges this many bytes per send without serialising.
func WireSize(m Message) int { return headerSize + m.EncodedSize() }

// newMessage returns the value a datagram of type t decodes into, or nil
// for a type with no row in msgTypes. With pooled set, pooled types come
// from their pools, with recycled slice capacity for the decode to append
// into.
func newMessage(t MsgType, pooled bool) Message {
	if t >= tMaxMsgType || msgTypes[t].fresh == nil {
		return nil
	}
	if pooled && msgTypes[t].pooled != nil {
		return msgTypes[t].pooled()
	}
	return msgTypes[t].fresh()
}

// --- writer ----------------------------------------------------------------

type writer struct{ buf []byte }

func (w *writer) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64) { w.buf = binary.BigEndian.AppendUint64(w.buf, v) }
func (w *writer) boolean(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) ref(r NodeRef) {
	w.u64(uint64(r.ID))
	w.u64(r.Addr)
	w.u8(r.MaxLevel)
	w.u16(r.Score)
}

func (w *writer) region(r Region) {
	w.u64(uint64(r.Lo))
	w.u64(uint64(r.Hi))
}

func (w *writer) entry(e Entry) {
	w.ref(e.Ref)
	w.u8(e.Level)
	w.u8(uint8(e.Flags))
	w.u32(e.Version)
	w.u16(e.AgeDs)
}

func (w *writer) entries(es []Entry) {
	w.u16(uint16(len(es)))
	for _, e := range es {
		w.entry(e)
	}
}

func (w *writer) refs(rs []NodeRef) {
	w.u16(uint16(len(rs)))
	for _, r := range rs {
		w.ref(r)
	}
}

func (w *writer) bytes(b []byte) {
	w.u16(uint16(len(b)))
	w.buf = append(w.buf, b...)
}

// --- reader ----------------------------------------------------------------

type reader struct {
	buf []byte
	err error
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = ErrShort
	}
	r.buf = nil
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.buf) < 1 {
		r.fail()
		return 0
	}
	v := r.buf[0]
	r.buf = r.buf[1:]
	return v
}

func (r *reader) u16() uint16 {
	if r.err != nil || len(r.buf) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.buf)
	r.buf = r.buf[2:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.buf) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.buf)
	r.buf = r.buf[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.buf) < 8 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint64(r.buf)
	r.buf = r.buf[8:]
	return v
}

func (r *reader) boolean() bool { return r.u8() != 0 }

func (r *reader) ref() NodeRef {
	return NodeRef{
		ID:       idspace.ID(r.u64()),
		Addr:     r.u64(),
		MaxLevel: r.u8(),
		Score:    r.u16(),
	}
}

func (r *reader) region() Region {
	return Region{Lo: idspace.ID(r.u64()), Hi: idspace.ID(r.u64())}
}

func (r *reader) entry() Entry {
	return Entry{
		Ref:     r.ref(),
		Level:   r.u8(),
		Flags:   EntryFlag(r.u8()),
		Version: r.u32(),
		AgeDs:   r.u16(),
	}
}

// entriesInto decodes an entry list, appending into dst so pooled
// messages reuse their recycled capacity. A nil dst (the fresh Decode
// path) behaves exactly like the old allocate-per-decode reader,
// including returning nil for an empty list.
func (r *reader) entriesInto(dst []Entry) []Entry {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if n > maxListLen || len(r.buf) < n*entrySize {
		r.fail()
		return nil
	}
	if n == 0 {
		return dst
	}
	if cap(dst) < n {
		dst = make([]Entry, 0, n)
	}
	for i := 0; i < n; i++ {
		dst = append(dst, r.entry())
	}
	return dst
}

func (r *reader) refs() []NodeRef {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if n > maxListLen || len(r.buf) < n*nodeRefSize {
		r.fail()
		return nil
	}
	if n == 0 {
		return nil
	}
	out := make([]NodeRef, n)
	for i := range out {
		out[i] = r.ref()
	}
	return out
}

// bytesInto decodes a length-prefixed byte field, appending into dst (see
// entriesInto). The bytes are always copied out of the wire buffer: a
// decoded message never aliases the datagram it came from.
func (r *reader) bytesInto(dst []byte) []byte {
	n := int(r.u16())
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.fail()
		return nil
	}
	if n == 0 {
		return dst
	}
	dst = append(dst, r.buf[:n]...)
	r.buf = r.buf[n:]
	return dst
}

// --- per-message encode/decode/size ----------------------------------------

// Type implements Message.
func (*Hello) Type() MsgType { return THello }

// EncodedSize implements Message.
func (*Hello) EncodedSize() int { return nodeRefSize + 1 }

func (m *Hello) encodeBody(w *writer) { w.ref(m.From); w.u8(m.MaxChildren) }
func (m *Hello) decodeBody(r *reader) { m.From = r.ref(); m.MaxChildren = r.u8() }

// Type implements Message.
func (*Ping) Type() MsgType { return TPing }

// EncodedSize implements Message.
func (m *Ping) EncodedSize() int { return nodeRefSize + 4 + 2 + len(m.Entries)*entrySize }

func (m *Ping) encodeBody(w *writer) { w.ref(m.From); w.u32(m.Seq); w.entries(m.Entries) }
func (m *Ping) decodeBody(r *reader) {
	m.From = r.ref()
	m.Seq = r.u32()
	m.Entries = r.entriesInto(m.Entries[:0])
}

// Type implements Message.
func (*Pong) Type() MsgType { return TPong }

// EncodedSize implements Message.
func (m *Pong) EncodedSize() int { return nodeRefSize + 4 + 2 + len(m.Entries)*entrySize }

func (m *Pong) encodeBody(w *writer) { w.ref(m.From); w.u32(m.Seq); w.entries(m.Entries) }
func (m *Pong) decodeBody(r *reader) {
	m.From = r.ref()
	m.Seq = r.u32()
	m.Entries = r.entriesInto(m.Entries[:0])
}

// Type implements Message.
func (*JoinRequest) Type() MsgType { return TJoinRequest }

// EncodedSize implements Message.
func (*JoinRequest) EncodedSize() int { return nodeRefSize }

func (m *JoinRequest) encodeBody(w *writer) { w.ref(m.From) }
func (m *JoinRequest) decodeBody(r *reader) { m.From = r.ref() }

// Type implements Message.
func (*JoinRedirect) Type() MsgType { return TJoinRedirect }

// EncodedSize implements Message.
func (*JoinRedirect) EncodedSize() int { return 2 * nodeRefSize }

func (m *JoinRedirect) encodeBody(w *writer) { w.ref(m.From); w.ref(m.Closer) }
func (m *JoinRedirect) decodeBody(r *reader) { m.From = r.ref(); m.Closer = r.ref() }

// Type implements Message.
func (*JoinAccept) Type() MsgType { return TJoinAccept }

// EncodedSize implements Message.
func (*JoinAccept) EncodedSize() int { return 4 * nodeRefSize }

func (m *JoinAccept) encodeBody(w *writer) {
	w.ref(m.From)
	w.ref(m.Left)
	w.ref(m.Right)
	w.ref(m.Parent)
}

func (m *JoinAccept) decodeBody(r *reader) {
	m.From = r.ref()
	m.Left = r.ref()
	m.Right = r.ref()
	m.Parent = r.ref()
}

// Type implements Message.
func (*ElectionCall) Type() MsgType { return TElectionCall }

// EncodedSize implements Message.
func (*ElectionCall) EncodedSize() int { return nodeRefSize + 1 }

func (m *ElectionCall) encodeBody(w *writer) { w.ref(m.From); w.u8(m.Level) }
func (m *ElectionCall) decodeBody(r *reader) { m.From = r.ref(); m.Level = r.u8() }

// Type implements Message.
func (*ParentClaim) Type() MsgType { return TParentClaim }

// EncodedSize implements Message.
func (*ParentClaim) EncodedSize() int { return nodeRefSize + 1 + regionSize }

func (m *ParentClaim) encodeBody(w *writer) { w.ref(m.From); w.u8(m.Level); w.region(m.Region) }
func (m *ParentClaim) decodeBody(r *reader) {
	m.From = r.ref()
	m.Level = r.u8()
	m.Region = r.region()
}

// Type implements Message.
func (*ChildReport) Type() MsgType { return TChildReport }

// EncodedSize implements Message.
func (*ChildReport) EncodedSize() int { return nodeRefSize + 1 }

func (m *ChildReport) encodeBody(w *writer) { w.ref(m.From); w.u8(m.Degree) }
func (m *ChildReport) decodeBody(r *reader) { m.From = r.ref(); m.Degree = r.u8() }

// Type implements Message.
func (*PromoteGrant) Type() MsgType { return TPromoteGrant }

// EncodedSize implements Message.
func (*PromoteGrant) EncodedSize() int { return nodeRefSize + 1 + regionSize + 2*nodeRefSize }

func (m *PromoteGrant) encodeBody(w *writer) {
	w.ref(m.From)
	w.u8(m.Level)
	w.region(m.Region)
	w.ref(m.Left)
	w.ref(m.Right)
}

func (m *PromoteGrant) decodeBody(r *reader) {
	m.From = r.ref()
	m.Level = r.u8()
	m.Region = r.region()
	m.Left = r.ref()
	m.Right = r.ref()
}

// Type implements Message.
func (*Demote) Type() MsgType { return TDemote }

// EncodedSize implements Message.
func (*Demote) EncodedSize() int { return nodeRefSize + 1 + nodeRefSize }

func (m *Demote) encodeBody(w *writer) { w.ref(m.From); w.u8(m.Level); w.ref(m.Successor) }
func (m *Demote) decodeBody(r *reader) { m.From = r.ref(); m.Level = r.u8(); m.Successor = r.ref() }

// Type implements Message.
func (*BusLinkReq) Type() MsgType { return TBusLinkReq }

// EncodedSize implements Message.
func (*BusLinkReq) EncodedSize() int { return nodeRefSize + 1 }

func (m *BusLinkReq) encodeBody(w *writer) { w.ref(m.From); w.u8(m.Level) }
func (m *BusLinkReq) decodeBody(r *reader) { m.From = r.ref(); m.Level = r.u8() }

// Type implements Message.
func (*BusLinkAck) Type() MsgType { return TBusLinkAck }

// EncodedSize implements Message.
func (*BusLinkAck) EncodedSize() int { return nodeRefSize + 1 + 2*nodeRefSize }

func (m *BusLinkAck) encodeBody(w *writer) {
	w.ref(m.From)
	w.u8(m.Level)
	w.ref(m.Left)
	w.ref(m.Right)
}

func (m *BusLinkAck) decodeBody(r *reader) {
	m.From = r.ref()
	m.Level = r.u8()
	m.Left = r.ref()
	m.Right = r.ref()
}

// Type implements Message.
func (*LookupRequest) Type() MsgType { return TLookupRequest }

// EncodedSize implements Message.
func (m *LookupRequest) EncodedSize() int {
	return nodeRefSize + 8 + 8 + 1 + 1 + 1 + 2 + len(m.Alternates)*nodeRefSize
}

func (m *LookupRequest) encodeBody(w *writer) {
	w.ref(m.Origin)
	w.u64(uint64(m.Target))
	w.u64(m.ReqID)
	w.u8(m.TTL)
	w.u8(m.Hops)
	algo := uint8(m.Algo) &^ lookupAckWanted
	if m.AckWanted {
		algo |= lookupAckWanted
	}
	w.u8(algo)
	w.refs(m.Alternates)
}

// lookupAckWanted is LookupRequest.AckWanted on the wire: the top bit of
// the Algo byte, which no algorithm identifier reaches.
const lookupAckWanted = 0x80

func (m *LookupRequest) decodeBody(r *reader) {
	m.Origin = r.ref()
	m.Target = idspace.ID(r.u64())
	m.ReqID = r.u64()
	m.TTL = r.u8()
	m.Hops = r.u8()
	algo := r.u8()
	m.Algo, m.AckWanted = Algo(algo&^lookupAckWanted), algo&lookupAckWanted != 0
	m.Alternates = r.refs()
}

// Type implements Message.
func (*LookupReply) Type() MsgType { return TLookupReply }

// EncodedSize implements Message.
func (*LookupReply) EncodedSize() int { return nodeRefSize + 8 + 1 + nodeRefSize + 1 }

func (m *LookupReply) encodeBody(w *writer) {
	w.ref(m.From)
	w.u64(m.ReqID)
	w.u8(uint8(m.Status))
	w.ref(m.Best)
	w.u8(m.Hops)
}

func (m *LookupReply) decodeBody(r *reader) {
	m.From = r.ref()
	m.ReqID = r.u64()
	m.Status = LookupStatus(r.u8())
	m.Best = r.ref()
	m.Hops = r.u8()
}

// Type implements Message.
func (*DHTStore) Type() MsgType { return TDHTStore }

// EncodedSize implements Message.
func (m *DHTStore) EncodedSize() int { return nodeRefSize + 8 + 8 + 2 + len(m.Value) + 8 + 1 }

func (m *DHTStore) encodeBody(w *writer) {
	w.ref(m.From)
	w.u64(m.ReqID)
	w.u64(uint64(m.Key))
	w.bytes(m.Value)
	w.u64(m.Base)
	w.boolean(m.Cond)
}

func (m *DHTStore) decodeBody(r *reader) {
	m.From = r.ref()
	m.ReqID = r.u64()
	m.Key = idspace.ID(r.u64())
	m.Value = r.bytesInto(m.Value[:0])
	m.Base = r.u64()
	m.Cond = r.boolean()
}

// Type implements Message.
func (*DHTStoreAck) Type() MsgType { return TDHTStoreAck }

// EncodedSize implements Message.
func (*DHTStoreAck) EncodedSize() int { return nodeRefSize + 8 + 1 + 8 + 8 }

func (m *DHTStoreAck) encodeBody(w *writer) {
	w.ref(m.From)
	w.u64(m.ReqID)
	w.u8(uint8(m.Status))
	w.u64(m.Version)
	w.u64(m.Origin)
}

func (m *DHTStoreAck) decodeBody(r *reader) {
	m.From = r.ref()
	m.ReqID = r.u64()
	m.Status = StoreStatus(r.u8())
	m.Version = r.u64()
	m.Origin = r.u64()
}

// Type implements Message.
func (*DHTFetch) Type() MsgType { return TDHTFetch }

// EncodedSize implements Message.
func (*DHTFetch) EncodedSize() int { return nodeRefSize + 8 + 8 + 1 }

func (m *DHTFetch) encodeBody(w *writer) {
	w.ref(m.From)
	w.u64(m.ReqID)
	w.u64(uint64(m.Key))
	w.boolean(m.Local)
}

func (m *DHTFetch) decodeBody(r *reader) {
	m.From = r.ref()
	m.ReqID = r.u64()
	m.Key = idspace.ID(r.u64())
	m.Local = r.boolean()
}

// Type implements Message.
func (*DHTFetchReply) Type() MsgType { return TDHTFetchReply }

// EncodedSize implements Message.
func (m *DHTFetchReply) EncodedSize() int { return nodeRefSize + 8 + 1 + 2 + len(m.Value) + 8 + 8 }

func (m *DHTFetchReply) encodeBody(w *writer) {
	w.ref(m.From)
	w.u64(m.ReqID)
	w.boolean(m.Found)
	w.bytes(m.Value)
	w.u64(m.Version)
	w.u64(m.Origin)
}

func (m *DHTFetchReply) decodeBody(r *reader) {
	m.From = r.ref()
	m.ReqID = r.u64()
	m.Found = r.boolean()
	m.Value = r.bytesInto(m.Value[:0])
	m.Version = r.u64()
	m.Origin = r.u64()
}

// Type implements Message.
func (*DHTReplicate) Type() MsgType { return TDHTReplicate }

// EncodedSize implements Message.
func (m *DHTReplicate) EncodedSize() int {
	return nodeRefSize + 8 + 8 + 2 + len(m.Value) + 8 + 8 + 1
}

func (m *DHTReplicate) encodeBody(w *writer) {
	w.ref(m.From)
	w.u64(m.ReqID)
	w.u64(uint64(m.Key))
	w.bytes(m.Value)
	w.u64(m.Version)
	w.u64(m.Origin)
	w.boolean(m.Cache)
}

func (m *DHTReplicate) decodeBody(r *reader) {
	m.From = r.ref()
	m.ReqID = r.u64()
	m.Key = idspace.ID(r.u64())
	m.Value = r.bytesInto(m.Value[:0])
	m.Version = r.u64()
	m.Origin = r.u64()
	m.Cache = r.boolean()
}

// Type implements Message.
func (*DHTReplicateAck) Type() MsgType { return TDHTReplicateAck }

// EncodedSize implements Message.
func (*DHTReplicateAck) EncodedSize() int { return nodeRefSize + 8 + 1 }

func (m *DHTReplicateAck) encodeBody(w *writer) { w.ref(m.From); w.u64(m.ReqID); w.boolean(m.Stored) }
func (m *DHTReplicateAck) decodeBody(r *reader) {
	m.From = r.ref()
	m.ReqID = r.u64()
	m.Stored = r.boolean()
}

// Type implements Message.
func (*Leave) Type() MsgType { return TLeave }

// EncodedSize implements Message.
func (*Leave) EncodedSize() int { return nodeRefSize }

func (m *Leave) encodeBody(w *writer) { w.ref(m.From) }
func (m *Leave) decodeBody(r *reader) { m.From = r.ref() }

// Type implements Message.
func (*Reparent) Type() MsgType { return TReparent }

// EncodedSize implements Message.
func (*Reparent) EncodedSize() int { return 2*nodeRefSize + 2 }

func (m *Reparent) encodeBody(w *writer) { w.ref(m.From); w.ref(m.NewParent); w.u16(m.AgeDs) }
func (m *Reparent) decodeBody(r *reader) { m.From = r.ref(); m.NewParent = r.ref(); m.AgeDs = r.u16() }

// Type implements Message.
func (*RingProbe) Type() MsgType { return TRingProbe }

// EncodedSize implements Message.
func (*RingProbe) EncodedSize() int { return 2*nodeRefSize + 1 + 1 + 2 }

func (m *RingProbe) encodeBody(w *writer) {
	w.ref(m.From)
	w.ref(m.Origin)
	w.boolean(m.Left)
	w.u8(m.TTL)
	w.u16(m.AgeDs)
}

func (m *RingProbe) decodeBody(r *reader) {
	m.From = r.ref()
	m.Origin = r.ref()
	m.Left = r.boolean()
	m.TTL = r.u8()
	m.AgeDs = r.u16()
}

// Type implements Message.
func (*RingProbeAck) Type() MsgType { return TRingProbeAck }

// EncodedSize implements Message.
func (*RingProbeAck) EncodedSize() int { return nodeRefSize + 1 + 1 }

func (m *RingProbeAck) encodeBody(w *writer) { w.ref(m.From); w.boolean(m.Left); w.u8(m.Hops) }
func (m *RingProbeAck) decodeBody(r *reader) { m.From = r.ref(); m.Left = r.boolean(); m.Hops = r.u8() }

// Type implements Message.
func (*MergeIntro) Type() MsgType { return TMergeIntro }

// EncodedSize implements Message.
func (*MergeIntro) EncodedSize() int { return 2*nodeRefSize + 2 }

func (m *MergeIntro) encodeBody(w *writer) { w.ref(m.From); w.ref(m.Peer); w.u16(m.AgeDs) }
func (m *MergeIntro) decodeBody(r *reader) { m.From = r.ref(); m.Peer = r.ref(); m.AgeDs = r.u16() }
