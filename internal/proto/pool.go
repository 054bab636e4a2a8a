package proto

import "sync"

// pools holds one pool per wire type whose msgTypes row is marked pooled,
// indexed by MsgType. A pool has no New: Acquire calls the row's
// constructor on a miss, so no closure per pool lives on the heap. The
// keep-alive traffic (Ping/Pong with piggybacked entries, child reports)
// dominates a steady-state overlay's message volume; pooling it makes the
// per-message hot path allocation-free in the simulator, where payloads
// travel by reference and the network knows exactly when a datagram's life
// ends.
//
// Contract: a pooled message is sent to exactly one destination and must
// not be retained (nor any slice it carries) by a receiving handler after
// the handler returns. The core protocol obeys this: entry slices are
// consumed into routing tables by value during handling. A type whose one
// object goes to many peers (ParentClaim, Leave) stays unpooled.
var pools [tMaxMsgType]sync.Pool

// Acquire returns a pooled message of type t, reset by its body walk
// (cursor direction clearing): every field zero, an entry or value buffer
// empty with its capacity kept and seeded, a lookup's alternates nil. The caller
// asserts the concrete type: Acquire(TPing).(*Ping).
func Acquire(t MsgType) Message {
	m, _ := pools[t].Get().(Message)
	if m == nil {
		m = msgTypes[t].fresh()
	}
	m.body(&clearer)
	return m
}

// ReleaseDecoded returns a pooled message to its pool: the one release,
// called when a datagram's life ends (netsim), once a decoded message is
// dispatched or an outgoing one encoded (udptransport), and on every path
// that drops a message unsent. The message (and any slice it carries) must
// not be touched afterwards. An unpooled type makes it a no-op.
func ReleaseDecoded(m Message) {
	if t := m.Type(); msgTypes[t].pooled {
		pools[t].Put(m)
	}
}

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

// PooledCopy returns a pooled copy of a service-plane request, value
// included, for the network to carry and recycle: what the plane sends for
// one attempt of a call it holds req for. A message of any other type is
// returned as it is.
func PooledCopy(req SvcMessage) SvcMessage {
	switch m := req.(type) {
	case *DHTStore:
		c := Acquire(TDHTStore).(*DHTStore)
		*c, c.Value = *m, append(c.Value, m.Value...)
		return c
	case *DHTFetch:
		c := Acquire(TDHTFetch).(*DHTFetch)
		*c = *m
		return c
	case *DHTReplicate:
		c := Acquire(TDHTReplicate).(*DHTReplicate)
		*c, c.Value = *m, append(c.Value, m.Value...)
		return c
	}
	return req
}
