package udptransport

import (
	"bytes"
	"errors"
	"net"
	"runtime"
	"sort"
	"testing"
	"time"

	"treep/internal/core"
	"treep/internal/idspace"
	"treep/internal/proto"
)

// equivCorpus builds a deterministic mixed-type message stream; every
// message is unique (distinct Seq/ReqID), so encodings can be compared as
// multisets without caring about UDP reordering.
func equivCorpus(n int) [][]byte {
	wire := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		ref := proto.NodeRef{ID: idspace.ID(i*2654435761 + 1), Addr: uint64(i + 1), MaxLevel: uint8(i % 5)}
		var m proto.Message
		switch i % 4 {
		case 0:
			entries := make([]proto.Entry, i%7)
			for j := range entries {
				entries[j] = proto.Entry{
					Ref:     proto.NodeRef{ID: idspace.ID(i*31 + j + 1), Addr: uint64(i*31 + j + 1)},
					Level:   uint8(j % 3),
					Version: uint32(i),
					AgeDs:   uint16(i),
				}
			}
			m = &proto.Ping{From: ref, Seq: uint32(i), Entries: entries}
		case 1:
			m = &proto.Hello{From: ref, MaxChildren: uint8(i)}
		case 2:
			var val []byte
			if l := (i * 37) % 900; l > 0 {
				val = bytes.Repeat([]byte{byte(i)}, l)
			}
			m = &proto.DHTStore{From: ref, ReqID: uint64(i), Key: idspace.ID(i * 7), Value: val}
		default:
			m = &proto.LookupRequest{Origin: ref, Target: idspace.ID(i * 13), ReqID: uint64(i),
				TTL: uint8(i), Algo: proto.AlgoG}
		}
		wire = append(wire, proto.Encode(m))
	}
	return wire
}

// runStream pushes the wire corpus from one socket to another through the
// given batchIO constructor on both ends and returns the received
// payloads. Source attribution is checked on every slot.
func runStream(t *testing.T, mkIO func(*net.UDPConn) batchIO, wire [][]byte) [][]byte {
	t.Helper()
	la := &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}
	recvConn, err := net.ListenUDP("udp4", la)
	if err != nil {
		t.Fatal(err)
	}
	defer recvConn.Close()
	sendConn, err := net.ListenUDP("udp4", la)
	if err != nil {
		t.Fatal(err)
	}
	defer sendConn.Close()
	recvIO, sendIO := mkIO(recvConn), mkIO(sendConn)

	to := AddrToUint(recvConn.LocalAddr().(*net.UDPAddr))
	fromWant := AddrToUint(sendConn.LocalAddr().(*net.UDPAddr))

	var arena []byte
	var pkts []spkt
	for _, b := range wire {
		off := len(arena)
		arena = append(arena, b...)
		pkts = append(pkts, spkt{off: off, n: len(b), to: to})
	}
	if n := sendIO.WriteBatch(arena, pkts); n <= 0 {
		t.Fatalf("WriteBatch used %d syscalls", n)
	}

	_ = recvConn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var got [][]byte
	for len(got) < len(wire) {
		slots, nsys, err := recvIO.ReadBatch()
		if err != nil {
			t.Fatalf("ReadBatch after %d/%d datagrams: %v", len(got), len(wire), err)
		}
		if nsys <= 0 {
			t.Fatalf("ReadBatch reported %d syscalls", nsys)
		}
		for i := range slots {
			s := &slots[i]
			if s.from != fromWant {
				t.Fatalf("slot source %#x, want %#x", s.from, fromWant)
			}
			got = append(got, append([]byte(nil), s.buf[:s.n]...))
		}
	}
	return got
}

func sortedMultiset(b [][]byte) []string {
	out := make([]string, len(b))
	for i, x := range b {
		out[i] = string(x)
	}
	sort.Strings(out)
	return out
}

// TestBatchSingleEquivalence is the correctness pin for the kernel batch
// path: the same message stream sent and received through the mmsg
// implementation and through the single-datagram fallback must yield the
// identical multiset of payloads, every one decodable, every one
// attributed to the right source. On platforms without the batch path
// both arms run the fallback and the test degenerates to a self-check.
func TestBatchSingleEquivalence(t *testing.T) {
	wire := equivCorpus(100)

	single := runStream(t, func(c *net.UDPConn) batchIO { return newSingleIO(c) }, wire)
	batch := runStream(t, func(c *net.UDPConn) batchIO {
		io, err := newBatchIO(c)
		if err != nil {
			t.Fatalf("newBatchIO: %v", err)
		}
		return io
	}, wire)

	want := sortedMultiset(wire)
	if got := sortedMultiset(single); !equalStrings(got, want) {
		t.Fatal("single-datagram path corrupted the stream")
	}
	if got := sortedMultiset(batch); !equalStrings(got, want) {
		t.Fatal("batch path corrupted the stream")
	}
	for _, b := range batch {
		if _, err := proto.Decode(b); err != nil {
			t.Fatalf("batch-path payload fails to decode: %v", err)
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestBatchedReportsPath checks the platform selection: the default path
// is the kernel batch implementation exactly on the gated platforms.
func TestBatchedReportsPath(t *testing.T) {
	cfg := core.Defaults()
	cfg.ID = 2
	tr, err := Listen(cfg, "127.0.0.1:0", 2)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	wantBatch := runtime.GOOS == "linux" && (runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64")
	if tr.Batched() != wantBatch {
		t.Fatalf("default transport Batched()=%v on %s/%s, want %v",
			tr.Batched(), runtime.GOOS, runtime.GOARCH, wantBatch)
	}
}

// waitStats polls until cond holds or the deadline passes, returning the
// final snapshot either way.
func waitStats(tr *Transport, cond func(Snapshot) bool) Snapshot {
	deadline := time.Now().Add(3 * time.Second)
	for {
		st := tr.Stats()
		if cond(st) || time.Now().After(deadline) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestSendRejectsOversizeAndZeroAddr pins the send-side guards: an
// encoding larger than proto.MaxDatagram is rejected and counted (never
// handed to the kernel to truncate), and the zero overlay address is a
// silent no-op.
func TestSendRejectsOversizeAndZeroAddr(t *testing.T) {
	cfg := core.Defaults()
	cfg.ID = 3
	tr, err := Listen(cfg, "127.0.0.1:0", 3)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	peer := AddrToUint(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9})
	e := &env{tr: tr, addr: tr.OverlayAddr()}

	big := &proto.DHTStore{From: proto.NodeRef{ID: 1, Addr: 1}, ReqID: 1,
		Value: make([]byte, proto.MaxDatagram)}
	small := &proto.Hello{From: proto.NodeRef{ID: 1, Addr: 1}}
	if err := tr.Do(func(*core.Node) {
		e.Send(peer, big)   // oversize: rejected, counted
		e.Send(0, small)    // zero address: dropped silently
		e.Send(peer, small) // legitimate: queued and flushed
	}); err != nil {
		t.Fatal(err)
	}

	st := waitStats(tr, func(s Snapshot) bool { return s.Flushes >= 1 })
	if st.Oversize != 1 {
		t.Fatalf("oversize count %d, want 1", st.Oversize)
	}
	if st.Sent != 1 {
		t.Fatalf("sent count %d, want 1 (oversize and zero-addr must not queue)", st.Sent)
	}
	if st.Flushes < 1 || st.SendSyscalls < 1 {
		t.Fatalf("legitimate send never flushed: %+v", st)
	}
}

// scriptIO feeds the read loop a fixed sequence of receive batches, then
// blocks until released. It lets the drop/decode-error accounting be
// tested without manufacturing unroutable datagrams on a real socket.
type scriptIO struct {
	batches [][]rslot
	next    int
	stop    chan struct{}
}

func (s *scriptIO) ReadBatch() ([]rslot, int, error) {
	if s.next < len(s.batches) {
		b := s.batches[s.next]
		s.next++
		return b, 1, nil
	}
	<-s.stop
	return nil, 1, errors.New("script exhausted")
}

func (s *scriptIO) WriteBatch(arena []byte, pkts []spkt) int { return len(pkts) }
func (s *scriptIO) Batched() bool                            { return false }

// TestReadLoopCountsDropsAndDecodeErrors pins the receive-side
// accounting: a datagram with an unpackable source (from == 0) is a
// drop, a datagram that fails to parse is a decode error, and neither is
// dispatched — previously the from == 0 case was miscounted as a clean
// receive.
func TestReadLoopCountsDropsAndDecodeErrors(t *testing.T) {
	src := AddrToUint(&net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 4242})
	hello := proto.Encode(&proto.Hello{From: proto.NodeRef{ID: 9, Addr: src}})
	garbage := []byte{0xDE, 0xAD, 0xBE, 0xEF}
	mk := func(b []byte, from uint64) rslot { return rslot{buf: b, n: len(b), from: from} }

	sio := &scriptIO{
		stop: make(chan struct{}),
		batches: [][]rslot{
			{mk(hello, 0), mk(garbage, src), mk(hello, src)},
			{mk(hello, 0)},
		},
	}
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.Defaults()
	cfg.ID = 4
	tr, err := newTransport(cfg, conn, 4, sio)
	if err != nil {
		t.Fatal(err)
	}

	st := waitStats(tr, func(s Snapshot) bool { return s.Recv >= 4 })
	close(sio.stop)
	tr.Close()
	st = tr.Stats()
	if st.Recv != 4 {
		t.Fatalf("recv count %d, want 4", st.Recv)
	}
	if st.Drops != 2 {
		t.Fatalf("drop count %d, want 2: %+v", st.Drops, st)
	}
	if st.DecodeErrs != 1 {
		t.Fatalf("decode error count %d, want 1: %+v", st.DecodeErrs, st)
	}
}

// listenSingle is Listen over the portable fallback: the transport every
// platform without a verified mmsg path runs (mmsg_other.go).
func listenSingle(cfg core.Config, seed int64) (*Transport, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	return newTransport(cfg, conn, seed, newSingleIO(conn))
}

// TestOverlayFormsSingleDatagram runs a small cluster over singleIO, the
// only path on non-Linux platforms: it must remain a fully working
// transport, with the 1:1 syscall-per-datagram profile the batch path
// amortises.
func TestOverlayFormsSingleDatagram(t *testing.T) {
	if testing.Short() {
		t.Skip("real-time UDP cluster; skipped with -short")
	}
	trs := startNodesVia(t, 6, listenSingle)
	time.Sleep(1500 * time.Millisecond)
	for i, tr := range trs {
		if tr.Batched() {
			t.Fatalf("node %d reports the batch path over singleIO", i)
		}
		// Sampled on the loop, where the send queue is empty between events:
		// Sent counts at queue time, SendSyscalls at the flush.
		var l0 int
		var st Snapshot
		if err := tr.Do(func(n *core.Node) { l0, st = n.Table().Level0.Len(), tr.Stats() }); err != nil {
			t.Fatal(err)
		}
		if l0 == 0 {
			t.Fatalf("node %d isolated on the single-datagram path", i)
		}
		if st.SendSyscalls != st.Sent {
			t.Fatalf("node %d: single path made %d send syscalls for %d datagrams (must be 1:1)",
				i, st.SendSyscalls, st.Sent)
		}
	}
}
