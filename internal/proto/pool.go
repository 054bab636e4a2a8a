package proto

import "sync"

// Recyclable is implemented by message types that can return to a pool
// once the delivery layer is finished with them. The keep-alive traffic
// (Ping/Pong with piggybacked entries, child reports) dominates a
// steady-state overlay's message volume; pooling those three types makes
// the per-message hot path allocation-free in the simulator, where
// payloads travel by reference and the network knows exactly when a
// datagram's life ends.
//
// Contract: a recyclable message is sent to exactly one destination and
// must not be retained (nor any slice it carries) by a receiving handler
// after the handler returns. The core protocol obeys this: entry slices
// are consumed into routing tables by value during handling.
type Recyclable interface{ Recycle() }

var (
	pingPool        = sync.Pool{New: func() interface{} { return new(Ping) }}
	pongPool        = sync.Pool{New: func() interface{} { return new(Pong) }}
	childReportPool = sync.Pool{New: func() interface{} { return new(ChildReport) }}
	helloPool       = sync.Pool{New: func() interface{} { return new(Hello) }}
	busLinkReqPool  = sync.Pool{New: func() interface{} { return new(BusLinkReq) }}
	busLinkAckPool  = sync.Pool{New: func() interface{} { return new(BusLinkAck) }}
	ringProbePool   = sync.Pool{New: func() interface{} { return new(RingProbe) }}
	ringProbeAckPl  = sync.Pool{New: func() interface{} { return new(RingProbeAck) }}
	mergeIntroPool  = sync.Pool{New: func() interface{} { return new(MergeIntro) }}
	reparentPool    = sync.Pool{New: func() interface{} { return new(Reparent) }}
	joinReqPool     = sync.Pool{New: func() interface{} { return new(JoinRequest) }}
	joinRedirPool   = sync.Pool{New: func() interface{} { return new(JoinRedirect) }}
	joinAcceptPool  = sync.Pool{New: func() interface{} { return new(JoinAccept) }}
	dhtStorePool    = sync.Pool{New: func() interface{} { return new(DHTStore) }}
	dhtStoreAckPool = sync.Pool{New: func() interface{} { return new(DHTStoreAck) }}
	dhtFetchPool    = sync.Pool{New: func() interface{} { return new(DHTFetch) }}
	dhtFetchRepPool = sync.Pool{New: func() interface{} { return new(DHTFetchReply) }}
	dhtReplPool     = sync.Pool{New: func() interface{} { return new(DHTReplicate) }}
	dhtReplAckPool  = sync.Pool{New: func() interface{} { return new(DHTReplicateAck) }}
	lookupReqPool   = sync.Pool{New: func() interface{} { return new(LookupRequest) }}
	lookupReplyPool = sync.Pool{New: func() interface{} { return new(LookupReply) }}
)

// entrySeedCap pre-sizes a pooled message's entry buffer: typical updates
// carry a dozen-odd entries, and seeding the capacity once per pool
// object avoids the 1→2→4→8 append ladder on every fresh buffer.
const entrySeedCap = 24

func seedEntries(es []Entry) []Entry {
	if cap(es) < entrySeedCap {
		return make([]Entry, 0, entrySeedCap)
	}
	return es[:0]
}

// AcquirePing returns a pooled Ping. Entries keeps its previous capacity
// with zero length, so delta composition appends without reallocating.
func AcquirePing() *Ping {
	p := pingPool.Get().(*Ping)
	p.From, p.Seq, p.Entries = NodeRef{}, 0, seedEntries(p.Entries)
	return p
}

// Recycle implements Recyclable.
func (p *Ping) Recycle() { pingPool.Put(p) }

// AcquirePong returns a pooled Pong (see AcquirePing).
func AcquirePong() *Pong {
	p := pongPool.Get().(*Pong)
	p.From, p.Seq, p.Entries = NodeRef{}, 0, seedEntries(p.Entries)
	return p
}

// Recycle implements Recyclable.
func (p *Pong) Recycle() { pongPool.Put(p) }

// AcquireChildReport returns a pooled ChildReport.
func AcquireChildReport() *ChildReport {
	c := childReportPool.Get().(*ChildReport)
	*c = ChildReport{}
	return c
}

// Recycle implements Recyclable.
func (c *ChildReport) Recycle() { childReportPool.Put(c) }

// AcquireHello returns a pooled Hello.
func AcquireHello() *Hello {
	h := helloPool.Get().(*Hello)
	*h = Hello{}
	return h
}

// Recycle implements Recyclable.
func (h *Hello) Recycle() { helloPool.Put(h) }

// AcquireBusLinkReq returns a pooled BusLinkReq.
func AcquireBusLinkReq() *BusLinkReq {
	r := busLinkReqPool.Get().(*BusLinkReq)
	*r = BusLinkReq{}
	return r
}

// Recycle implements Recyclable.
func (r *BusLinkReq) Recycle() { busLinkReqPool.Put(r) }

// AcquireBusLinkAck returns a pooled BusLinkAck.
func AcquireBusLinkAck() *BusLinkAck {
	a := busLinkAckPool.Get().(*BusLinkAck)
	*a = BusLinkAck{}
	return a
}

// Recycle implements Recyclable.
func (a *BusLinkAck) Recycle() { busLinkAckPool.Put(a) }

// AcquireRingProbe returns a pooled RingProbe. Probes are periodic
// repair traffic (one per occupied ring side per probe interval), so they
// pool like the keep-alives: sent to exactly one destination, consumed by
// value in the handler, never retained.
func AcquireRingProbe() *RingProbe {
	p := ringProbePool.Get().(*RingProbe)
	*p = RingProbe{}
	return p
}

// Recycle implements Recyclable.
func (p *RingProbe) Recycle() { ringProbePool.Put(p) }

// AcquireRingProbeAck returns a pooled RingProbeAck.
func AcquireRingProbeAck() *RingProbeAck {
	a := ringProbeAckPl.Get().(*RingProbeAck)
	*a = RingProbeAck{}
	return a
}

// Recycle implements Recyclable.
func (a *RingProbeAck) Recycle() { ringProbeAckPl.Put(a) }

// AcquireMergeIntro returns a pooled MergeIntro.
func AcquireMergeIntro() *MergeIntro {
	m := mergeIntroPool.Get().(*MergeIntro)
	*m = MergeIntro{}
	return m
}

// Recycle implements Recyclable.
func (m *MergeIntro) Recycle() { mergeIntroPool.Put(m) }

// AcquireReparent returns a pooled Reparent. Splits, demotions and
// courtship redirects and refusals send one per child under churn; each
// goes to one child and is read by value.
func AcquireReparent() *Reparent {
	m := reparentPool.Get().(*Reparent)
	*m = Reparent{}
	return m
}

// Recycle implements Recyclable.
func (m *Reparent) Recycle() { reparentPool.Put(m) }

// AcquireJoinRequest returns a pooled JoinRequest. A join walks a chain
// of redirects, one request and one redirect a hop, so the three join
// types pool together.
func AcquireJoinRequest() *JoinRequest {
	m := joinReqPool.Get().(*JoinRequest)
	*m = JoinRequest{}
	return m
}

// Recycle implements Recyclable.
func (m *JoinRequest) Recycle() { joinReqPool.Put(m) }

// AcquireJoinRedirect returns a pooled JoinRedirect.
func AcquireJoinRedirect() *JoinRedirect {
	m := joinRedirPool.Get().(*JoinRedirect)
	*m = JoinRedirect{}
	return m
}

// Recycle implements Recyclable.
func (m *JoinRedirect) Recycle() { joinRedirPool.Put(m) }

// AcquireJoinAccept returns a pooled JoinAccept.
func AcquireJoinAccept() *JoinAccept {
	m := joinAcceptPool.Get().(*JoinAccept)
	*m = JoinAccept{}
	return m
}

// Recycle implements Recyclable.
func (m *JoinAccept) Recycle() { joinAcceptPool.Put(m) }

// AcquireLookupRequest returns a pooled LookupRequest: the copy a hop
// sends on, read and never kept by the hop that receives it. Alternates
// comes back nil, not as recycled capacity — a forwarded request shares
// its alternates backing with the request it was copied from.
func AcquireLookupRequest() *LookupRequest {
	m := lookupReqPool.Get().(*LookupRequest)
	*m = LookupRequest{}
	return m
}

// Recycle implements Recyclable.
func (m *LookupRequest) Recycle() { lookupReqPool.Put(m) }

// AcquireLookupReply returns a pooled LookupReply. Hop acknowledgements
// are per-hop traffic and final replies per-lookup traffic; both go to
// exactly one destination and are consumed by value in the handler.
func AcquireLookupReply() *LookupReply {
	m := lookupReplyPool.Get().(*LookupReply)
	*m = LookupReply{}
	return m
}

// Recycle implements Recyclable.
func (m *LookupReply) Recycle() { lookupReplyPool.Put(m) }

// valueSeedCap pre-sizes a pooled DHT message's value buffer; typical
// records are small key-value payloads, and keeping the capacity across
// pool cycles makes the steady-state request and reply paths
// allocation-free.
//
// Every DHT type is pooled, requests included. A request the service plane
// may send again is never itself handed to the network: the plane keeps it
// and sends each attempt as its own pooled copy (PooledCopy), which the
// simulator recycles when that datagram ends and the UDP transport once it
// is encoded. A value a message carries is copied into the message's own
// buffer, never shared: in the simulator a payload in flight is read after
// its sender has moved on.
const valueSeedCap = 256

func seedValue(v []byte) []byte {
	if cap(v) < valueSeedCap {
		return make([]byte, 0, valueSeedCap)
	}
	return v[:0]
}

// AcquireDHTStore returns a pooled DHTStore with an empty value buffer.
func AcquireDHTStore() *DHTStore {
	m := dhtStorePool.Get().(*DHTStore)
	*m = DHTStore{Value: seedValue(m.Value)}
	return m
}

// Recycle implements Recyclable.
func (m *DHTStore) Recycle() { dhtStorePool.Put(m) }

// AcquireDHTFetch returns a pooled DHTFetch.
func AcquireDHTFetch() *DHTFetch {
	m := dhtFetchPool.Get().(*DHTFetch)
	*m = DHTFetch{}
	return m
}

// Recycle implements Recyclable.
func (m *DHTFetch) Recycle() { dhtFetchPool.Put(m) }

// AcquireDHTReplicate returns a pooled DHTReplicate with an empty value
// buffer.
func AcquireDHTReplicate() *DHTReplicate {
	m := dhtReplPool.Get().(*DHTReplicate)
	*m = DHTReplicate{Value: seedValue(m.Value)}
	return m
}

// Recycle implements Recyclable.
func (m *DHTReplicate) Recycle() { dhtReplPool.Put(m) }

// PooledCopy returns a pooled copy of a service-plane request, value
// included, for the network to carry and recycle: what the plane sends for
// one attempt of a call it holds req for. A message of any other type is
// returned as it is.
func PooledCopy(req SvcMessage) SvcMessage {
	switch m := req.(type) {
	case *DHTStore:
		c := AcquireDHTStore()
		*c, c.Value = *m, append(c.Value, m.Value...)
		return c
	case *DHTFetch:
		c := AcquireDHTFetch()
		*c = *m
		return c
	case *DHTReplicate:
		c := AcquireDHTReplicate()
		*c, c.Value = *m, append(c.Value, m.Value...)
		return c
	}
	return req
}

// AcquireDHTStoreAck returns a pooled DHTStoreAck.
func AcquireDHTStoreAck() *DHTStoreAck {
	m := dhtStoreAckPool.Get().(*DHTStoreAck)
	*m = DHTStoreAck{}
	return m
}

// Recycle implements Recyclable.
func (m *DHTStoreAck) Recycle() { dhtStoreAckPool.Put(m) }

// AcquireDHTFetchReply returns a pooled DHTFetchReply. Value keeps its
// previous capacity with zero length, so reply composition appends without
// reallocating; receivers must copy, never retain, the slice.
func AcquireDHTFetchReply() *DHTFetchReply {
	m := dhtFetchRepPool.Get().(*DHTFetchReply)
	v := seedValue(m.Value)
	*m = DHTFetchReply{Value: v}
	return m
}

// Recycle implements Recyclable.
func (m *DHTFetchReply) Recycle() { dhtFetchRepPool.Put(m) }

// AcquireDHTReplicateAck returns a pooled DHTReplicateAck.
func AcquireDHTReplicateAck() *DHTReplicateAck {
	m := dhtReplAckPool.Get().(*DHTReplicateAck)
	*m = DHTReplicateAck{}
	return m
}

// Recycle implements Recyclable.
func (m *DHTReplicateAck) Recycle() { dhtReplAckPool.Put(m) }
