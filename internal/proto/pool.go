package proto

import (
	"slices"
	"sync"
	"unsafe"
)

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
// (cursor direction clearing): every field zero, an entry buffer back in
// its class and the field nil, a value buffer empty with its capacity kept
// and seeded, a lookup's alternates nil. The caller asserts the concrete
// type: Acquire(TPing).(*Ping).
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

// entryClasses are the capacities an entry buffer comes in: each n for
// which n entries (32 B each) fill an allocator size class exactly, up to
// the allocator's 32 KiB small-object limit. A keep-alive's buffer is the
// smallest class that holds its entries, so a message in flight holds about
// what it carries, and nothing is lost to the allocator's rounding.
var entryClasses = [...]int{
	1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 18, 20, 22, 24,
	28, 32, 36, 40, 44, 48, 56, 64, 72, 84, 96, 100, 108, 128, 152, 168, 192,
	204, 212, 216, 256, 296, 304, 320, 340, 384, 424, 448, 512, 576, 596, 640,
	680, 768, 852, 896, 1024,
}

// entryPools holds the idle buffers of each class, by index into
// entryClasses. A pool holds a buffer by its first element: a pointer goes
// into an interface without allocating, a slice header would not.
var entryPools [len(entryClasses)]sync.Pool

// EntryBuf returns an empty entry buffer with room for n entries: one of the
// smallest class that holds n, from its pool when one is idle. Above the
// largest class it is made to measure and never pooled; for n ≤ 0 it is nil.
// The buffer goes back to its pool when the message carrying it is reset
// (the clearing walk of Acquire).
func EntryBuf(n int) []Entry {
	if n <= 0 {
		return nil
	}
	i, _ := slices.BinarySearch(entryClasses[:], n)
	if i == len(entryClasses) {
		return make([]Entry, 0, n)
	}
	if p, _ := entryPools[i].Get().(*Entry); p != nil {
		return unsafe.Slice(p, entryClasses[i])[:0]
	}
	return make([]Entry, 0, entryClasses[i])
}

// putEntries gives an entry buffer back to its class. A buffer of any other
// capacity (made to measure, or built outside EntryBuf) is dropped.
func putEntries(es []Entry) {
	if i, ok := slices.BinarySearch(entryClasses[:], cap(es)); ok {
		entryPools[i].Put(unsafe.SliceData(es))
	}
}

// valueSeedCap pre-sizes a pooled DHT message's value buffer; typical
// records are small key-value payloads, and keeping the capacity across
// pool cycles makes the steady-state request and reply paths
// allocation-free.
//
// Every DHT type is pooled, requests included. A request the DHT may send
// again is never itself handed to the network: its call keeps it and sends
// each attempt as its own pooled copy (PooledCopy), which the
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

// PooledCopy returns a pooled copy of a DHT request, value included, for
// the network to carry and recycle: what a DHT call sends for each attempt
// of the request it holds, and what a lookup hop forwards or holds of the
// request its lookup carries. A message of any other type, nil included,
// is returned as it is.
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
