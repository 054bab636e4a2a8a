package udptransport

import "net"

// readBufSize is one receive slot's capacity. It must cover
// proto.MaxDatagram (65507): a slot that cannot hold the largest legal
// datagram would let the kernel truncate it into a decode error.
const readBufSize = 64 << 10

// rslot is one received datagram: buf[:n] holds the wire bytes, from the
// packed source overlay address (0 when the source is not a packable
// IPv4 endpoint — counted as a drop by the read loop).
type rslot struct {
	buf  []byte
	n    int
	from uint64
}

// spkt is one queued outbound datagram: arena[off:off+n], destined to
// the packed overlay address to.
type spkt struct {
	off int
	n   int
	to  uint64
}

// batchIO abstracts the socket syscall layer so the transport runs
// identically over the Linux recvmmsg/sendmmsg fast path and the
// portable one-datagram-per-syscall fallback. The batch-vs-single
// equivalence test pins the two implementations to the same observable
// byte streams.
type batchIO interface {
	// ReadBatch blocks until at least one datagram arrives and returns
	// the filled slots plus the number of receive syscalls consumed.
	// Slots are valid until the next ReadBatch call; decoded messages
	// must copy everything they keep (proto.DecodePooled does).
	ReadBatch() ([]rslot, int, error)
	// WriteBatch sends every queued packet (payload bytes live in arena)
	// best-effort, returning the number of send syscalls used. UDP
	// semantics: per-datagram errors are silently dropped datagrams.
	WriteBatch(arena []byte, pkts []spkt) int
	// Batched reports whether the kernel batch path is in use.
	Batched() bool
}

// singleIO is the portable fallback, the only path on platforms without
// a verified mmsg implementation: one blocking socket call per datagram
// through the net package (including the per-read *UDPAddr and per-write
// UintToAddr allocations the batch path eliminates).
type singleIO struct {
	conn *net.UDPConn
	slot [1]rslot
}

func newSingleIO(conn *net.UDPConn) *singleIO {
	s := &singleIO{conn: conn}
	s.slot[0].buf = make([]byte, readBufSize)
	return s
}

// ReadBatch implements batchIO.
func (s *singleIO) ReadBatch() ([]rslot, int, error) {
	n, raddr, err := s.conn.ReadFromUDP(s.slot[0].buf)
	if err != nil {
		return nil, 1, err
	}
	s.slot[0].n = n
	s.slot[0].from = AddrToUint(raddr)
	return s.slot[:], 1, nil
}

// WriteBatch implements batchIO.
func (s *singleIO) WriteBatch(arena []byte, pkts []spkt) int {
	for _, p := range pkts {
		_, _ = s.conn.WriteToUDP(arena[p.off:p.off+p.n], UintToAddr(p.to))
	}
	return len(pkts)
}

// Batched implements batchIO.
func (s *singleIO) Batched() bool { return false }
