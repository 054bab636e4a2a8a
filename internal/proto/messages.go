// Package proto defines the TreeP wire protocol: the datagram messages the
// overlay exchanges and their compact binary encoding.
//
// The paper's routing tables store "(ID, IP, Port)" tuples (§III.c) and the
// overlay runs over UDP (§III); each message here fits comfortably in a
// single datagram. The same message structs travel by reference through the
// simulator (for speed) and through the codec over real UDP sockets — the
// codec round-trip is property-tested so the two paths cannot diverge.
package proto

import (
	"fmt"
	"time"

	"treep/internal/idspace"
)

// MsgType discriminates message bodies on the wire.
type MsgType uint8

// Message type identifiers. The zero value is invalid so that a zeroed
// buffer never parses as a valid message.
const (
	TInvalid MsgType = iota
	THello
	TPing
	TPong
	TJoinRequest
	TJoinRedirect
	TJoinAccept
	TElectionCall
	TParentClaim
	TChildReport
	TPromoteGrant
	TDemote
	TBusLinkReq
	TBusLinkAck
	TLookupRequest
	TLookupReply
	TDHTStore
	TDHTStoreAck
	TDHTFetch
	TDHTFetchReply
	TReparent
	TLeave
	TDHTReplicate
	TDHTReplicateAck
	TRingProbe
	TRingProbeAck
	TMergeIntro
	tMaxMsgType // sentinel, keep last
)

// msgTypes is the one table of the wire types, a row each: the name
// MsgType.String prints (the bench message ledger keys on it), the
// constructor of the zero value Decode fills, and whether the type is
// pooled. Acquire calls the constructor when the type's pool is empty, and
// DecodePooled and ReleaseDecoded serve a type by this flag alone
// (pool.go). A row compiles only if its struct implements Message; a type
// without a row does not decode.
var msgTypes = [tMaxMsgType]struct {
	name   string
	fresh  func() Message
	pooled bool
}{
	TInvalid:      {name: "invalid"},
	THello:        {"hello", func() Message { return new(Hello) }, true},
	TPing:         {"ping", func() Message { return new(Ping) }, true},
	TPong:         {"pong", func() Message { return new(Pong) }, true},
	TJoinRequest:  {"join-request", func() Message { return new(JoinRequest) }, true},
	TJoinRedirect: {"join-redirect", func() Message { return new(JoinRedirect) }, true},
	TJoinAccept:   {"join-accept", func() Message { return new(JoinAccept) }, true},
	TElectionCall: {"election-call", func() Message { return new(ElectionCall) }, true},
	// One claim object goes to every peer in the new region: unpooled.
	TParentClaim:   {"parent-claim", func() Message { return new(ParentClaim) }, false},
	TChildReport:   {"child-report", func() Message { return new(ChildReport) }, true},
	TPromoteGrant:  {"promote-grant", func() Message { return new(PromoteGrant) }, true},
	TDemote:        {"demote", func() Message { return new(Demote) }, true},
	TBusLinkReq:    {"bus-link-req", func() Message { return new(BusLinkReq) }, true},
	TBusLinkAck:    {"bus-link-ack", func() Message { return new(BusLinkAck) }, true},
	TLookupRequest: {"lookup-request", func() Message { return new(LookupRequest) }, true},
	TLookupReply:   {"lookup-reply", func() Message { return new(LookupReply) }, true},
	TDHTStore:      {"dht-store", func() Message { return new(DHTStore) }, true},
	TDHTStoreAck:   {"dht-store-ack", func() Message { return new(DHTStoreAck) }, true},
	TDHTFetch:      {"dht-fetch", func() Message { return new(DHTFetch) }, true},
	TDHTFetchReply: {"dht-fetch-reply", func() Message { return new(DHTFetchReply) }, true},
	TReparent:      {"reparent", func() Message { return new(Reparent) }, true},
	// One leave object goes to every neighbour: unpooled.
	TLeave:           {"leave", func() Message { return new(Leave) }, false},
	TDHTReplicate:    {"dht-replicate", func() Message { return new(DHTReplicate) }, true},
	TDHTReplicateAck: {"dht-replicate-ack", func() Message { return new(DHTReplicateAck) }, true},
	TRingProbe:       {"ring-probe", func() Message { return new(RingProbe) }, true},
	TRingProbeAck:    {"ring-probe-ack", func() Message { return new(RingProbeAck) }, true},
	TMergeIntro:      {"merge-intro", func() Message { return new(MergeIntro) }, true},
}

// String implements fmt.Stringer.
func (t MsgType) String() string {
	if t < tMaxMsgType {
		return msgTypes[t].name
	}
	return fmt.Sprintf("msgtype(%d)", uint8(t))
}

// Message is implemented by every wire message.
type Message interface {
	// Type returns the wire discriminator.
	Type() MsgType
	// Sender returns what the message says of the peer that sent it, which
	// core takes as that peer's own level claim, or the zero ref.
	Sender() NodeRef
	// body names the message's fields once, in wire order; the cursor
	// sizes, writes or reads each of them (codec.go).
	body(c *cursor)
}

// NodeRef names a peer: its coordinate in the ID space, its transport
// address, the highest level it occupies, and a quantised capability score.
// The score rides along so that a node learning about a peer for the first
// time can immediately rank it for elections (§III.d: "When two nodes
// communicate for the first time they exchange information about their
// resources and state").
type NodeRef struct {
	ID       idspace.ID
	Addr     uint64
	MaxLevel uint8
	Score    uint16 // capability quantised to [0, 65535]
}

const nodeRefSize = 8 + 8 + 1 + 2

// IsZero reports whether the ref is the absent-node sentinel.
func (r NodeRef) IsZero() bool { return r.Addr == 0 }

// String implements fmt.Stringer.
func (r NodeRef) String() string {
	if r.IsZero() {
		return "ref(-)"
	}
	return fmt.Sprintf("ref(%s@%d lvl%d)", r.ID, r.Addr, r.MaxLevel)
}

// Nearer reports whether a comes before b in the nearest-first order to x:
// by distance to x, then by ID (the lower of two IDs equidistant either
// side of x), then by address. It is a strict total order on distinct
// (ID, address) pairs, so every node holding the same refs picks the same
// one. It is the tie-break of every scan for the peer nearest a point by
// exact distance (routing, rtable, core, dht); no other copy of it exists.
func Nearer(x idspace.ID, a, b NodeRef) bool {
	if da, db := idspace.Dist(a.ID, x), idspace.Dist(b.ID, x); da != db {
		return da < db
	}
	if a.ID != b.ID {
		return a.ID < b.ID
	}
	return a.Addr < b.Addr
}

// QuantizeScore maps a capability score in [0,1] to the wire representation.
func QuantizeScore(s float64) uint16 {
	if s <= 0 {
		return 0
	}
	if s >= 1 {
		return 65535
	}
	return uint16(s * 65535)
}

// Region mirrors idspace.Region on the wire (a parent's tessellation).
type Region struct {
	Lo, Hi idspace.ID
}

// ToIDSpace converts to the idspace representation.
func (r Region) ToIDSpace() idspace.Region { return idspace.Region{Lo: r.Lo, Hi: r.Hi} }

// FromIDSpace converts from the idspace representation.
func FromIDSpace(r idspace.Region) Region { return Region{Lo: r.Lo, Hi: r.Hi} }

// EntryFlag describes the role of a routing-table entry in an update.
type EntryFlag uint8

// Entry roles. A single entry may carry several flags (a level-0 neighbour
// that is also the sender's parent).
const (
	FNeighbor EntryFlag = 1 << iota // same-level neighbour
	FParent                         // sender's parent
	FChild                          // sender's child
	FSuperior                       // member of sender's superior node list
	FIndirect                       // neighbour-of-neighbour (indirect)
)

// Entry is one routing-table item exchanged in updates: the peer, the level
// the entry belongs to, its role flags, a version used to ship only
// out-of-date data (§III.d), and the entry's age at the provider. Shipping
// the age keeps staleness cumulative across hops — without it, every
// re-advertisement would reset a dead node's timestamp and gossip chains
// could keep it alive far beyond its TTL.
//
// Level, Flags and AgeDs share one 8-byte word with Version: 32 bytes,
// where wire order pads to 40. The codec writes the fields in wire order
// one by one (appendEntry, readEntry), so the struct layout is free.
type Entry struct {
	Ref   NodeRef
	Level uint8
	Flags EntryFlag
	// AgeDs is the time since the provider last validated this entry, in
	// deciseconds (6553 s max, far beyond any entry TTL).
	AgeDs   uint16
	Version uint32
}

const entrySize = nodeRefSize + 1 + 1 + 4 + 2

// AgeDuration converts AgeDs to a duration.
func (e Entry) AgeDuration() time.Duration {
	return time.Duration(e.AgeDs) * 100 * time.Millisecond
}

// AgeFrom computes the wire age for an entry validated at the given
// instant (clamped to the uint16 range).
func AgeFrom(now, validated time.Duration) uint16 {
	if validated >= now {
		return 0
	}
	ds := (now - validated) / (100 * time.Millisecond)
	if ds > 65535 {
		return 65535
	}
	return uint16(ds)
}

// --- Message bodies -------------------------------------------------------

// Hello opens a first contact: it advertises the sender and its parent
// capacity so the receiver can populate its tables (§III.d).
type Hello struct {
	From        NodeRef
	MaxChildren uint8
}

// Ping is the keep-alive. Entries piggyback routing-table deltas on the
// keep-alive exchange exactly as §III.d describes.
type Ping struct {
	From    NodeRef
	Seq     uint32
	Entries []Entry
}

// Pong answers a Ping, optionally carrying a delta back.
type Pong struct {
	From    NodeRef
	Seq     uint32
	Entries []Entry
}

// JoinRequest asks a bootstrap peer to place the sender at level 0.
type JoinRequest struct {
	From NodeRef
}

// JoinRedirect points a joining node at a peer closer to its coordinate.
type JoinRedirect struct {
	From   NodeRef
	Closer NodeRef
}

// JoinAccept tells the joining node its level-0 neighbours and (if known)
// the level-1 parent responsible for its coordinate.
type JoinAccept struct {
	From        NodeRef
	Left, Right NodeRef // either may be zero at the space edges
	Parent      NodeRef // may be zero when no hierarchy exists yet
}

// ElectionCall announces that the sender triggered a parent election for
// the given level (§III.b: fired when a node reaches degree 2 without a
// parent). Receivers start their capability countdowns.
type ElectionCall struct {
	From  NodeRef
	Level uint8
}

// ParentClaim is the election winner's announcement: "it will signal to its
// neighbours that it is their new parent" (§III.b).
type ParentClaim struct {
	From   NodeRef
	Level  uint8
	Region Region // tessellation the new parent covers
}

// ChildReport is the child→parent heartbeat; parents delete children that
// stop reporting (§III.a: "If they do not report regularly they will be
// simply be deleted from its routing table").
type ChildReport struct {
	From   NodeRef
	Degree uint8 // child's current level-0 degree, for parent stats
}

// PromoteGrant promotes a child to the sender's level, handing it a
// tessellation (B+tree-style split when a parent exceeds its capacity) and
// the bus neighbours to link with.
type PromoteGrant struct {
	From        NodeRef
	Level       uint8
	Region      Region
	Left, Right NodeRef
}

// Demote announces that the sender leaves the given level and which bus
// neighbour inherits its tessellation.
type Demote struct {
	From      NodeRef
	Level     uint8
	Successor NodeRef // may be zero when the level empties
}

// BusLinkReq asks a same-level node to (re)establish bus neighbour links.
type BusLinkReq struct {
	From  NodeRef
	Level uint8
}

// BusLinkAck confirms a bus link and shares the sender's own bus neighbours
// (the "direct and indirect neighbours" of §III.c).
type BusLinkAck struct {
	From        NodeRef
	Level       uint8
	Left, Right NodeRef
}

// Algo selects the lookup algorithm of §III.f.
type Algo uint8

// Lookup algorithms.
const (
	AlgoG    Algo = iota // greedy
	AlgoNG               // non-greedy: first improving neighbour
	AlgoNGSA             // non-greedy with fall-back alternates
)

// String implements fmt.Stringer.
func (a Algo) String() string {
	switch a {
	case AlgoG:
		return "G"
	case AlgoNG:
		return "NG"
	case AlgoNGSA:
		return "NGSA"
	}
	return fmt.Sprintf("algo(%d)", uint8(a))
}

// LookupRequest resolves the node responsible for (nearest to) Target.
// NGSA accumulates alternates: untried candidate hops that a dead-ended
// request can fall back to, "at the expense of adding data to the request"
// (§III.f).
type LookupRequest struct {
	Origin NodeRef // reply destination
	Target idspace.ID
	ReqID  uint64
	TTL    uint8
	Hops   uint8
	Algo   Algo
	// AckWanted asks the receiving hop for a sign of life (a LookupReply
	// with status LookupHopAck, sent to the previous hop): the forwarder is
	// holding the request because it has not heard from this peer lately.
	// On the wire it is the top bit of the Algo byte, so the encoding is
	// the size it always was and a request without the bit is unchanged.
	AckWanted bool
	// Silent is the last peer this walk found silent: a hop that held the
	// request, heard nothing from that peer by the deadline and routed it
	// again stamps it here, so the hops after it route around that peer
	// too. 0 for none; an origin's re-issue starts without one. On the
	// wire it follows the Algo byte, flagged by bit 0x20 of it, so a
	// request without it encodes as it always did.
	Silent     uint64
	Alternates []NodeRef
	// Carried is the service request (a DHTFetch or a DHTStore) the lookup
	// takes to the target's owner, nil for a plain lookup. The node where
	// routing delivers hands it to its extension (the DHT) as if the
	// origin had sent it, and the response goes straight back to the origin: one
	// routed exchange, no LookupReply. On the wire it follows the
	// alternates as its type byte and body, flagged by bit 0x40 of the Algo
	// byte, so a plain lookup encodes as it always did. A message owns its
	// carried request: resetting the message releases it.
	Carried SvcMessage
}

// MaxAlternates caps the NGSA fall-back list a LookupRequest carries. The
// forwarding decision never makes a longer one, and a decode rejects a
// longer one as malformed: every hop that merges the list scans it
// quadratically.
const MaxAlternates = 8

// LookupStatus is the outcome carried by a LookupReply.
type LookupStatus uint8

// Lookup outcomes.
const (
	LookupFound    LookupStatus = iota // Best is the target or its owner
	LookupNotFound                     // routing dead-ended
	// LookupHopAck is not an outcome: it is the solicited sign of life a
	// hop sends back to the forwarder that set AckWanted. It carries the
	// request's ReqID for tracing only and never completes a lookup.
	LookupHopAck
)

// LookupReply terminates a lookup (or, with status LookupHopAck,
// acknowledges one hop of it).
type LookupReply struct {
	From   NodeRef
	ReqID  uint64
	Status LookupStatus
	Best   NodeRef
	Hops   uint8
}

// StoreStatus is the outcome of a DHTStore at the owner.
type StoreStatus uint8

// Store outcomes.
const (
	// StoreOK: the record was accepted; the ack carries the new version.
	StoreOK StoreStatus = iota
	// StoreConflict: a conditional store's base version no longer matches;
	// the ack carries the owner's current version so the writer can retry
	// its read-modify-write.
	StoreConflict
)

// DHTStore asks the receiver (the key's owner, found via lookup) to accept
// a new version of the record. The owner assigns the version: an
// unconditional store becomes current-version+1; a conditional store
// (Cond=true) is accepted only while the owner's current version equals
// Base, which gives read-modify-write writers compare-and-swap semantics
// instead of lost updates.
type DHTStore struct {
	From  NodeRef
	ReqID uint64
	Key   idspace.ID
	Value []byte
	Base  uint64
	Cond  bool
}

// DHTStoreAck answers a DHTStore with the outcome and the record's
// resulting (or, on conflict, current) version and origin.
type DHTStoreAck struct {
	From    NodeRef
	ReqID   uint64
	Status  StoreStatus
	Version uint64
	Origin  uint64
}

// DHTFetch fetches the record for Key from the receiver. Local asks for
// the receiver's own store only; an owner serving a non-local fetch that
// misses may consult its replica neighbours (with Local sub-fetches)
// before answering, repairing itself from a surviving replica.
type DHTFetch struct {
	From  NodeRef
	ReqID uint64
	Key   idspace.ID
	Local bool
}

// DHTFetchReply returns the record (or Found=false) with its version.
type DHTFetchReply struct {
	From    NodeRef
	ReqID   uint64
	Found   bool
	Value   []byte
	Version uint64
	Origin  uint64
}

// DHTReplicate pushes a fully-versioned record copy to the receiver, which
// merges it by (version, origin) — newest wins, origin breaks ties — and
// never re-versions it. Replica maintenance and ownership handoff ride on
// this message; ReqID zero means fire-and-forget, non-zero requests a
// DHTReplicateAck (the handoff path frees the sender's copy on ack).
type DHTReplicate struct {
	From    NodeRef
	ReqID   uint64
	Key     idspace.ID
	Value   []byte
	Version uint64
	Origin  uint64
}

// DHTReplicateAck confirms a replica push.
type DHTReplicateAck struct {
	From   NodeRef
	ReqID  uint64
	Stored bool
}

// Leave announces a graceful departure: the receiver drops the sender from
// every table immediately instead of waiting out the entry TTL. Without it
// every clean shutdown is indistinguishable from a crash and costs the
// overlay a full failure-detection round.
type Leave struct {
	From NodeRef
}

// RingProbe ring-walks toward a suspected gap beside Origin. The origin
// sends it to its best known contact on the probed side; each receiver
// that knows a node strictly between the origin and itself forwards the
// probe there (the interval shrinks every hop, so the walk terminates),
// and the receiver with nothing in between is the far edge of the gap —
// it answers the origin with a RingProbeAck and a greeting, closing the
// ring. From is the current forwarder; Origin survives across hops.
type RingProbe struct {
	From   NodeRef
	Origin NodeRef
	// Left is the probed side from the origin's perspective: true means
	// the probe seeks the nearest node with an ID below Origin.ID.
	Left bool
	TTL  uint8
	// AgeDs is how stale the forwarder's knowledge of Origin already is
	// (deciseconds). Beyond the first hop Origin is hearsay; the age
	// accumulates so a dead origin cannot be re-minted fresh by its own
	// probe echoing through the overlay.
	AgeDs uint16
}

// RingProbeAck is the far edge's answer to the probing origin: "I am your
// nearest surviving neighbour on that side". It is a direct message, so
// its arrival alone gives the origin a fresh link to the edge.
type RingProbeAck struct {
	From NodeRef
	// Left echoes the probed side.
	Left bool
	// Hops is how many forwards the probe took (repair-latency telemetry).
	Hops uint8
}

// MergeIntro introduces two nodes that are probably ID-adjacent but
// unaware of each other: when a node gains a brand-new direct ring
// contact on one side while already holding a different fresh neighbour
// there, the two may belong to rings that formed independently — it sends
// each a MergeIntro naming the other. Receivers greet the named peer
// unless it is already a fresh direct contact, so the cascade zips two
// interleaved rings together and halts exactly where the rings are
// already merged.
type MergeIntro struct {
	From NodeRef
	Peer NodeRef
	// AgeDs is how stale the sender's knowledge of Peer is (deciseconds);
	// introductions are hearsay and must not re-mint freshness.
	AgeDs uint16
}

// Reparent tells a child that responsibility for it moved to NewParent
// (after a B+tree-style split promoted a sibling, or because the sender is
// demoting and hands its tessellation to a bus neighbour).
type Reparent struct {
	From      NodeRef
	NewParent NodeRef
	// AgeDs is how stale the sender's knowledge of NewParent already is
	// (deciseconds). Redirect targets are hearsay; without the age a
	// cluster of confused nodes can re-mint freshness for a dead node
	// indefinitely by redirecting each other to it.
	AgeDs uint16
}

// --- wire discriminators ----------------------------------------------------

// Type implements Message.
func (*Hello) Type() MsgType           { return THello }
func (*Ping) Type() MsgType            { return TPing }
func (*Pong) Type() MsgType            { return TPong }
func (*JoinRequest) Type() MsgType     { return TJoinRequest }
func (*JoinRedirect) Type() MsgType    { return TJoinRedirect }
func (*JoinAccept) Type() MsgType      { return TJoinAccept }
func (*ElectionCall) Type() MsgType    { return TElectionCall }
func (*ParentClaim) Type() MsgType     { return TParentClaim }
func (*ChildReport) Type() MsgType     { return TChildReport }
func (*PromoteGrant) Type() MsgType    { return TPromoteGrant }
func (*Demote) Type() MsgType          { return TDemote }
func (*BusLinkReq) Type() MsgType      { return TBusLinkReq }
func (*BusLinkAck) Type() MsgType      { return TBusLinkAck }
func (*LookupRequest) Type() MsgType   { return TLookupRequest }
func (*LookupReply) Type() MsgType     { return TLookupReply }
func (*DHTStore) Type() MsgType        { return TDHTStore }
func (*DHTStoreAck) Type() MsgType     { return TDHTStoreAck }
func (*DHTFetch) Type() MsgType        { return TDHTFetch }
func (*DHTFetchReply) Type() MsgType   { return TDHTFetchReply }
func (*DHTReplicate) Type() MsgType    { return TDHTReplicate }
func (*DHTReplicateAck) Type() MsgType { return TDHTReplicateAck }
func (*Leave) Type() MsgType           { return TLeave }
func (*Reparent) Type() MsgType        { return TReparent }
func (*RingProbe) Type() MsgType       { return TRingProbe }
func (*RingProbeAck) Type() MsgType    { return TRingProbeAck }
func (*MergeIntro) Type() MsgType      { return TMergeIntro }

// --- sender identification ---------------------------------------------------

// Sender implements Message: the core protocol's messages vouch for their
// sender with From.
func (m *Hello) Sender() NodeRef        { return m.From }
func (m *Ping) Sender() NodeRef         { return m.From }
func (m *Pong) Sender() NodeRef         { return m.From }
func (m *JoinRequest) Sender() NodeRef  { return m.From }
func (m *JoinRedirect) Sender() NodeRef { return m.From }
func (m *JoinAccept) Sender() NodeRef   { return m.From }
func (m *ElectionCall) Sender() NodeRef { return m.From }
func (m *ParentClaim) Sender() NodeRef  { return m.From }
func (m *ChildReport) Sender() NodeRef  { return m.From }
func (m *PromoteGrant) Sender() NodeRef { return m.From }
func (m *Demote) Sender() NodeRef       { return m.From }
func (m *Reparent) Sender() NodeRef     { return m.From }
func (m *BusLinkReq) Sender() NodeRef   { return m.From }
func (m *BusLinkAck) Sender() NodeRef   { return m.From }
func (m *LookupReply) Sender() NodeRef  { return m.From }
func (m *Leave) Sender() NodeRef        { return m.From }
func (m *RingProbe) Sender() NodeRef    { return m.From }
func (m *RingProbeAck) Sender() NodeRef { return m.From }
func (m *MergeIntro) Sender() NodeRef   { return m.From }

// Sender implements Message with the zero ref: a LookupRequest names its
// origin, not the hop that forwards it, and the DHT types' From has never
// been read as a level claim (reading it resamples every run: DESIGN.md §17).
func (*LookupRequest) Sender() NodeRef   { return NodeRef{} }
func (*DHTStore) Sender() NodeRef        { return NodeRef{} }
func (*DHTStoreAck) Sender() NodeRef     { return NodeRef{} }
func (*DHTFetch) Sender() NodeRef        { return NodeRef{} }
func (*DHTFetchReply) Sender() NodeRef   { return NodeRef{} }
func (*DHTReplicate) Sender() NodeRef    { return NodeRef{} }
func (*DHTReplicateAck) Sender() NodeRef { return NodeRef{} }

// --- DHT request and response interface ------------------------------------

// SvcMessage is one of the DHT's six request and response types: it names
// a request id, which matches a response to its pending call, and has a
// From ref, both stamped by the DHT at send time. It is also the type
// through which core carries a DHT request in a LookupRequest, and copies
// it hop by hop, without importing the DHT. Whether a type is a request or
// a response is the DHT's to know, not the type's.
type SvcMessage interface {
	Message
	// SvcID returns the request id; a response's is the id it answers.
	SvcID() uint64
	// SetSvc stamps the request id and sender identity before transmission.
	SetSvc(id uint64, from NodeRef)
	// SvcFrom returns the sender identity SetSvc stamped.
	SvcFrom() NodeRef
}

// SvcID, SvcFrom and SetSvc implement SvcMessage.
func (m *DHTStore) SvcID() uint64        { return m.ReqID }
func (m *DHTStoreAck) SvcID() uint64     { return m.ReqID }
func (m *DHTFetch) SvcID() uint64        { return m.ReqID }
func (m *DHTFetchReply) SvcID() uint64   { return m.ReqID }
func (m *DHTReplicate) SvcID() uint64    { return m.ReqID }
func (m *DHTReplicateAck) SvcID() uint64 { return m.ReqID }

func (m *DHTStore) SvcFrom() NodeRef        { return m.From }
func (m *DHTStoreAck) SvcFrom() NodeRef     { return m.From }
func (m *DHTFetch) SvcFrom() NodeRef        { return m.From }
func (m *DHTFetchReply) SvcFrom() NodeRef   { return m.From }
func (m *DHTReplicate) SvcFrom() NodeRef    { return m.From }
func (m *DHTReplicateAck) SvcFrom() NodeRef { return m.From }

func (m *DHTStore) SetSvc(id uint64, from NodeRef)        { m.ReqID, m.From = id, from }
func (m *DHTStoreAck) SetSvc(id uint64, from NodeRef)     { m.ReqID, m.From = id, from }
func (m *DHTFetch) SetSvc(id uint64, from NodeRef)        { m.ReqID, m.From = id, from }
func (m *DHTFetchReply) SetSvc(id uint64, from NodeRef)   { m.ReqID, m.From = id, from }
func (m *DHTReplicate) SetSvc(id uint64, from NodeRef)    { m.ReqID, m.From = id, from }
func (m *DHTReplicateAck) SetSvc(id uint64, from NodeRef) { m.ReqID, m.From = id, from }

// Compile-time SvcMessage interface checks.
var _ = [...]SvcMessage{
	(*DHTStore)(nil), (*DHTStoreAck)(nil), (*DHTFetch)(nil),
	(*DHTFetchReply)(nil), (*DHTReplicate)(nil), (*DHTReplicateAck)(nil),
}
