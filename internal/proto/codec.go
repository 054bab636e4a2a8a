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
	wireVersion = 2
	headerSize  = 3
)

// Codec errors.
var (
	ErrShort   = errors.New("proto: truncated message")
	ErrMagic   = errors.New("proto: bad magic byte")
	ErrVersion = errors.New("proto: unsupported protocol version")
	ErrType    = errors.New("proto: unknown message type")
	ErrTrail   = errors.New("proto: trailing bytes after message body")
	// ErrCarried: a lookup carries a message other than a service request
	// it may take to an owner (DHTFetch, DHTStore).
	ErrCarried = errors.New("proto: lookup carries a message it may not")
	// ErrSize: a lookup and the request it carries exceed MaxDatagram; no
	// hop could forward it.
	ErrSize = errors.New("proto: carried request exceeds the datagram bound")
)

// maxListLen bounds decoded entry lists; a datagram cannot legitimately
// carry more (64 KiB / 19-byte refs), and the bound stops hostile length
// prefixes from forcing huge allocations. A ref list is the alternates of
// a lookup and is bounded by MaxAlternates.
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
	return EncodeAppend(make([]byte, 0, WireSize(m)), m)
}

// EncodeAppend serialises a message, header included, appending to dst and
// returning the extended slice. With a dst of sufficient capacity the
// encode allocates nothing, which is what lets the batched UDP transport
// serialise a whole send queue into one recycled arena.
func EncodeAppend(dst []byte, m Message) []byte {
	_, out, _ := walk(m, writing, append(dst, wireMagic, wireVersion, uint8(m.Type())))
	return out
}

// WireSize returns the total datagram size for a message, header included.
// The simulator charges this many bytes per send without serialising.
func WireSize(m Message) int {
	n, _, _ := walk(m, sizing, nil)
	return headerSize + n
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
// (unpooled types make that a no-op).
func DecodePooled(b []byte) (Message, error) {
	return decode(b, true)
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
	_, rest, err := walk(m, reading, b[headerSize:])
	if err == nil && len(rest) != 0 {
		err = ErrTrail
	}
	if err != nil {
		if pooled {
			ReleaseDecoded(m)
		}
		return nil, err
	}
	return m, nil
}

// newMessage returns the value a datagram of type t decodes into, or nil
// for a type with no row in msgTypes. With pooled set, pooled types come
// from their pools, with recycled slice capacity for the decode to append
// into.
func newMessage(t MsgType, pooled bool) Message {
	if t >= tMaxMsgType || msgTypes[t].fresh == nil {
		return nil
	}
	if pooled && msgTypes[t].pooled {
		return Acquire(t)
	}
	return msgTypes[t].fresh()
}

// --- cursor ----------------------------------------------------------------

// direction is what a cursor does with each field a body walk names.
type direction uint8

const (
	sizing   direction = iota // add the field's wire size to n
	writing                   // append the field to buf
	reading                   // consume the field from buf into the struct
	clearing                  // reset the field for a pooled message's next use
)

// cursor carries one body walk. A field method takes a pointer to the
// field, so one walk serves all four directions. A read that runs out of
// bytes sets err and empties buf, so every later read of the walk fails
// too; the walk needs no error checks of its own.
type cursor struct {
	dir direction
	n   int
	buf []byte
	err error
}

// cursorPool recycles cursors. A stack-local cursor would be free, but
// escape analysis cannot keep one on the stack across the body interface
// call, so without the pool every size, encode and decode would pay one
// heap allocation for the cursor alone.
var cursorPool = sync.Pool{New: func() interface{} { return new(cursor) }}

// clearer is the one clearing cursor, shared by every Acquire at once: a
// clearing walk writes only the message's fields, never the cursor, so it
// needs neither the pool nor a cursor of its own.
var clearer = cursor{dir: clearing}

// walk runs m's body in direction dir over buf and returns the bytes
// counted, the buffer as the walk left it, and the read error.
func walk(m Message, dir direction, buf []byte) (int, []byte, error) {
	c := cursorPool.Get().(*cursor)
	c.dir, c.buf = dir, buf
	m.body(c)
	n, out, err := c.n, c.buf, c.err
	*c = cursor{}
	cursorPool.Put(c)
	return n, out, err
}

var be = binary.BigEndian

// fail ends a read walk: err becomes ErrShort unless it is already set,
// and buf empties.
func (c *cursor) fail() { c.reject(ErrShort) }

// reject ends a read walk with err unless an error is already set.
func (c *cursor) reject(err error) {
	if c.err == nil {
		c.err = err
	}
	c.buf = nil
}

// short reports whether fewer than k bytes are left to read, and fails
// the walk if so.
func (c *cursor) short(k int) bool {
	if len(c.buf) < k {
		c.fail()
		return true
	}
	return false
}

func (c *cursor) u8(v *uint8) {
	switch c.dir {
	case sizing:
		c.n++
	case writing:
		c.buf = append(c.buf, *v)
	case clearing:
		*v = 0
	default:
		if !c.short(1) {
			*v, c.buf = c.buf[0], c.buf[1:]
		}
	}
}

func (c *cursor) u16(v *uint16) {
	switch c.dir {
	case sizing:
		c.n += 2
	case writing:
		c.buf = be.AppendUint16(c.buf, *v)
	case clearing:
		*v = 0
	default:
		if !c.short(2) {
			*v, c.buf = be.Uint16(c.buf), c.buf[2:]
		}
	}
}

func (c *cursor) u32(v *uint32) {
	switch c.dir {
	case sizing:
		c.n += 4
	case writing:
		c.buf = be.AppendUint32(c.buf, *v)
	case clearing:
		*v = 0
	default:
		if !c.short(4) {
			*v, c.buf = be.Uint32(c.buf), c.buf[4:]
		}
	}
}

func (c *cursor) u64(v *uint64) {
	switch c.dir {
	case sizing:
		c.n += 8
	case writing:
		c.buf = be.AppendUint64(c.buf, *v)
	case clearing:
		*v = 0
	default:
		if !c.short(8) {
			*v, c.buf = be.Uint64(c.buf), c.buf[8:]
		}
	}
}

func (c *cursor) id(v *idspace.ID) { c.u64((*uint64)(v)) }

func (c *cursor) region(r *Region) { c.id(&r.Lo); c.id(&r.Hi) }

// boolean is one byte, 1 for true; a read takes any non-zero byte as true.
// A read or a clear stores the byte back.
func (c *cursor) boolean(v *bool) {
	var b uint8
	if *v {
		b = 1
	}
	c.u8(&b)
	if c.dir == reading || c.dir == clearing {
		*v = b != 0
	}
}

// ref and the entries list take one direction branch for the whole struct,
// not one per field: refs and entries are most of what the keep-alive
// traffic carries.
func (c *cursor) ref(r *NodeRef) {
	switch c.dir {
	case sizing:
		c.n += nodeRefSize
	case writing:
		c.buf = appendRef(c.buf, r)
	case clearing:
		*r = NodeRef{}
	default:
		if !c.short(nodeRefSize) {
			*r, c.buf = readRef(c.buf), c.buf[nodeRefSize:]
		}
	}
}

func appendRef(b []byte, r *NodeRef) []byte {
	b = be.AppendUint64(b, uint64(r.ID))
	b = be.AppendUint64(b, r.Addr)
	b = append(b, r.MaxLevel)
	return be.AppendUint16(b, r.Score)
}

func readRef(b []byte) NodeRef {
	return NodeRef{
		ID:       idspace.ID(be.Uint64(b)),
		Addr:     be.Uint64(b[8:]),
		MaxLevel: b[16],
		Score:    be.Uint16(b[17:]),
	}
}

func appendEntry(b []byte, e *Entry) []byte {
	b = appendRef(b, &e.Ref)
	b = append(b, e.Level, uint8(e.Flags))
	b = be.AppendUint32(b, e.Version)
	return be.AppendUint16(b, e.AgeDs)
}

func readEntry(b []byte) Entry {
	const at = nodeRefSize
	return Entry{
		Ref:     readRef(b),
		Level:   b[at],
		Flags:   EntryFlag(b[at+1]),
		Version: be.Uint32(b[at+2:]),
		AgeDs:   be.Uint16(b[at+6:]),
	}
}

// listLen reads a list's uint16 length prefix and checks that the n items
// of size bytes it announces are all there; more than limit items fail the
// walk.
func (c *cursor) listLen(size, limit int) (int, bool) {
	var n uint16
	c.u16(&n)
	if c.err == nil && int(n) > limit {
		c.fail()
	}
	return int(n), c.err == nil && !c.short(int(n)*size)
}

// entries, refs and bytes are length-prefixed lists, and a read leaves a
// nil field nil when the list is empty. An entry list is read into a buffer
// from EntryBuf, and a clear gives the buffer back to its class and leaves
// the field nil. Refs and values are read into the field's own capacity, so
// a pooled message decodes without allocating; a clear keeps a value
// buffer's capacity, seeded to valueSeedCap, and drops a ref list's.
func (c *cursor) entries(es *[]Entry) {
	switch c.dir {
	case sizing:
		c.n += 2 + len(*es)*entrySize
	case writing:
		c.buf = be.AppendUint16(c.buf, uint16(len(*es)))
		for i := range *es {
			c.buf = appendEntry(c.buf, &(*es)[i])
		}
	case clearing:
		putEntries(*es)
		*es = nil
	default:
		n, ok := c.listLen(entrySize, maxListLen)
		if !ok {
			return
		}
		dst := EntryBuf(n)
		for ; n > 0; n-- {
			dst = append(dst, readEntry(c.buf))
			c.buf = c.buf[entrySize:]
		}
		*es = dst
	}
}

func (c *cursor) refs(rs *[]NodeRef) {
	switch c.dir {
	case sizing:
		c.n += 2 + len(*rs)*nodeRefSize
	case writing:
		c.buf = be.AppendUint16(c.buf, uint16(len(*rs)))
		for i := range *rs {
			c.buf = appendRef(c.buf, &(*rs)[i])
		}
	case clearing:
		*rs = nil // a forwarded request shares its alternates' backing
	default:
		n, ok := c.listLen(nodeRefSize, MaxAlternates)
		if !ok {
			return
		}
		dst := (*rs)[:0]
		if cap(dst) < n {
			dst = make([]NodeRef, 0, n)
		}
		for ; n > 0; n-- {
			dst = append(dst, readRef(c.buf))
			c.buf = c.buf[nodeRefSize:]
		}
		*rs = dst
	}
}

// bytes copies out of the wire buffer on a read: a decoded message never
// aliases the datagram it came from. A value is bounded by its uint16
// length prefix alone.
func (c *cursor) bytes(v *[]byte) {
	switch c.dir {
	case sizing:
		c.n += 2 + len(*v)
	case writing:
		c.buf = be.AppendUint16(c.buf, uint16(len(*v)))
		c.buf = append(c.buf, *v...)
	case clearing:
		*v = seedValue(*v)
	default:
		n, ok := c.listLen(1, 0xFFFF)
		if ok {
			*v, c.buf = append((*v)[:0], c.buf[:n]...), c.buf[n:]
		}
	}
}

// carried is a lookup's service request: its type byte, then its body. A
// read takes the two types a lookup may carry from their pools; a clear
// hands the request back to its pool.
func (c *cursor) carried(m *SvcMessage) {
	switch c.dir {
	case clearing:
		ReleaseDecoded(*m)
		*m = nil
	case reading:
		var b uint8
		c.u8(&b)
		t := MsgType(b)
		if t != TDHTFetch && t != TDHTStore {
			c.reject(ErrCarried)
			return
		}
		*m = Acquire(t).(SvcMessage)
		(*m).body(c)
	default:
		t := uint8((*m).Type())
		c.u8(&t)
		(*m).body(c)
	}
}

// --- per-message layouts -----------------------------------------------------

// Each body names the message's fields once, in wire order.

func (m *Hello) body(c *cursor)        { c.ref(&m.From); c.u8(&m.MaxChildren) }
func (m *Ping) body(c *cursor)         { c.ref(&m.From); c.u32(&m.Seq); c.entries(&m.Entries) }
func (m *Pong) body(c *cursor)         { c.ref(&m.From); c.u32(&m.Seq); c.entries(&m.Entries) }
func (m *JoinRequest) body(c *cursor)  { c.ref(&m.From) }
func (m *JoinRedirect) body(c *cursor) { c.ref(&m.From); c.ref(&m.Closer) }

func (m *JoinAccept) body(c *cursor) {
	c.ref(&m.From)
	c.ref(&m.Left)
	c.ref(&m.Right)
	c.ref(&m.Parent)
}

func (m *ElectionCall) body(c *cursor) { c.ref(&m.From); c.u8(&m.Level) }
func (m *ParentClaim) body(c *cursor)  { c.ref(&m.From); c.u8(&m.Level); c.region(&m.Region) }
func (m *ChildReport) body(c *cursor)  { c.ref(&m.From); c.u8(&m.Degree) }

func (m *PromoteGrant) body(c *cursor) {
	c.ref(&m.From)
	c.u8(&m.Level)
	c.region(&m.Region)
	c.ref(&m.Left)
	c.ref(&m.Right)
}

func (m *Demote) body(c *cursor)     { c.ref(&m.From); c.u8(&m.Level); c.ref(&m.Successor) }
func (m *BusLinkReq) body(c *cursor) { c.ref(&m.From); c.u8(&m.Level) }
func (m *BusLinkAck) body(c *cursor) { c.ref(&m.From); c.u8(&m.Level); c.ref(&m.Left); c.ref(&m.Right) }

// lookupAckWanted, lookupCarries and lookupSilent are
// LookupRequest.AckWanted and the presence of LookupRequest.Carried and
// LookupRequest.Silent on the wire: the top three bits of the Algo byte,
// which no algorithm identifier reaches.
const (
	lookupAckWanted = 0x80
	lookupCarries   = 0x40
	lookupSilent    = 0x20
	lookupFlags     = lookupAckWanted | lookupCarries | lookupSilent
)

func (m *LookupRequest) body(c *cursor) {
	c.ref(&m.Origin)
	c.id(&m.Target)
	c.u64(&m.ReqID)
	c.u8(&m.TTL)
	c.u8(&m.Hops)
	carries, silent := m.Carried != nil, m.Silent != 0
	algo := uint8(m.Algo) &^ lookupFlags
	if m.AckWanted {
		algo |= lookupAckWanted
	}
	if carries {
		algo |= lookupCarries
	}
	if silent {
		algo |= lookupSilent
	}
	c.u8(&algo)
	if c.dir == reading || c.dir == clearing {
		m.Algo, m.AckWanted = Algo(algo&^lookupFlags), algo&lookupAckWanted != 0
	}
	if c.dir == reading {
		carries, silent = algo&lookupCarries != 0, algo&lookupSilent != 0
	}
	if silent {
		c.u64(&m.Silent)
	}
	c.refs(&m.Alternates)
	if !carries {
		return
	}
	c.carried(&m.Carried)
	// Every hop forwards what it received: a request too large for one
	// datagram could not leave the first of them.
	if c.dir == reading && c.err == nil && WireSize(m) > MaxDatagram {
		c.reject(ErrSize)
	}
}

func (m *LookupReply) body(c *cursor) {
	c.ref(&m.From)
	c.u64(&m.ReqID)
	c.u8((*uint8)(&m.Status))
	c.ref(&m.Best)
	c.u8(&m.Hops)
}

func (m *DHTStore) body(c *cursor) {
	c.ref(&m.From)
	c.u64(&m.ReqID)
	c.id(&m.Key)
	c.bytes(&m.Value)
	c.u64(&m.Base)
	c.boolean(&m.Cond)
}

func (m *DHTStoreAck) body(c *cursor) {
	c.ref(&m.From)
	c.u64(&m.ReqID)
	c.u8((*uint8)(&m.Status))
	c.u64(&m.Version)
	c.u64(&m.Origin)
}

func (m *DHTFetch) body(c *cursor) {
	c.ref(&m.From)
	c.u64(&m.ReqID)
	c.id(&m.Key)
	c.boolean(&m.Local)
}

func (m *DHTFetchReply) body(c *cursor) {
	c.ref(&m.From)
	c.u64(&m.ReqID)
	c.boolean(&m.Found)
	c.bytes(&m.Value)
	c.u64(&m.Version)
	c.u64(&m.Origin)
}

func (m *DHTReplicate) body(c *cursor) {
	c.ref(&m.From)
	c.u64(&m.ReqID)
	c.id(&m.Key)
	c.bytes(&m.Value)
	c.u64(&m.Version)
	c.u64(&m.Origin)
}

func (m *DHTReplicateAck) body(c *cursor) { c.ref(&m.From); c.u64(&m.ReqID); c.boolean(&m.Stored) }
func (m *Leave) body(c *cursor)           { c.ref(&m.From) }
func (m *Reparent) body(c *cursor)        { c.ref(&m.From); c.ref(&m.NewParent); c.u16(&m.AgeDs) }

func (m *RingProbe) body(c *cursor) {
	c.ref(&m.From)
	c.ref(&m.Origin)
	c.boolean(&m.Left)
	c.u8(&m.TTL)
	c.u16(&m.AgeDs)
}

func (m *RingProbeAck) body(c *cursor) { c.ref(&m.From); c.boolean(&m.Left); c.u8(&m.Hops) }
func (m *MergeIntro) body(c *cursor)   { c.ref(&m.From); c.ref(&m.Peer); c.u16(&m.AgeDs) }
