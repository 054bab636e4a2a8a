// Package udptransport runs TreeP nodes over real UDP sockets. The paper's
// overlay "is a UDP based overlay architecture" (§III); this transport
// drives the exact same core.Node state machines as the simulator, with
// the simulator's event queue run against the wall clock and the binary
// wire codec, proving the protocol is a real network program and not a
// simulation artifact.
//
// Concurrency model: each node owns one goroutine (the event loop). The
// socket reader pushes typed {from, msg} records into an inbound ring and
// Do posts closures into the control channel. Timers live on a sim.Kernel
// that only the loop touches: before each step the loop runs the kernel
// up to the wall clock, firing due callbacks inline, and between steps it
// sleeps until the kernel's next due time or the next arrival. All
// protocol state is touched only from the loop, exactly matching the
// single-threaded contract of core.Node.
//
// Data path (PR 9): socket I/O is batched — recvmmsg/sendmmsg on Linux
// via the batchIO layer, a single-datagram fallback elsewhere. Outbound
// messages are serialised with proto.EncodeAppend into one recycled
// arena and every env.Send made while handling one inbound burst or
// timer tick is coalesced into a single WriteBatch flush. Inbound
// datagrams decode into pooled messages (proto.DecodePooled) that are
// released back to their pools when the handler returns — the same
// end-of-dispatch recycling contract netsim uses. Stats are atomic
// counters; nothing on the per-message path takes a lock or allocates in
// steady state.
package udptransport

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"treep/internal/core"
	"treep/internal/proto"
	"treep/internal/sim"
)

// AddrToUint packs an IPv4 UDP address into the overlay's uint64 address
// space: 4 bytes of IP and 2 bytes of port. Port 0 or non-IPv4 addresses
// are not representable and return 0 (the invalid address).
func AddrToUint(a *net.UDPAddr) uint64 {
	ip4 := a.IP.To4()
	if ip4 == nil || a.Port == 0 {
		return 0
	}
	return uint64(ip4[0])<<40 | uint64(ip4[1])<<32 | uint64(ip4[2])<<24 |
		uint64(ip4[3])<<16 | uint64(a.Port)
}

// UintToAddr unpacks an overlay address back into a UDP address.
func UintToAddr(u uint64) *net.UDPAddr {
	return &net.UDPAddr{
		IP:   net.IPv4(byte(u>>40), byte(u>>32), byte(u>>24), byte(u>>16)),
		Port: int(u & 0xffff),
	}
}

// maxQueuedSends bounds the send queue between flushes: a pathological
// handler that emits hundreds of datagrams flushes inline rather than
// growing the arena without bound.
const maxQueuedSends = 64

// maxCoalesce bounds how many already-arrived inbound messages one loop
// wakeup dispatches before flushing replies, so a continuous inbound
// stream cannot starve timers or delay its own replies indefinitely.
const maxCoalesce = 32

// inMsg is one inbound ring slot: a decoded message and its source.
// The ring is a typed channel — dispatch allocates no closure.
type inMsg struct {
	from uint64
	msg  proto.Message
}

// Snapshot is the transport's wire-level counter state (Stats() any
// time, or read after Close in tests).
type Snapshot struct {
	// Recv counts datagrams the socket delivered; Sent counts datagrams
	// queued and flushed to the socket.
	Recv, Sent uint64
	// DecodeErrs counts received datagrams that failed to parse.
	DecodeErrs uint64
	// Drops counts received datagrams discarded before dispatch because
	// the source address is not a packable IPv4 endpoint (from == 0) —
	// previously these were miscounted as clean receives.
	Drops uint64
	// Oversize counts sends rejected because the encoding exceeds
	// proto.MaxDatagram — previously these were silent kernel-level
	// truncation mysteries.
	Oversize uint64
	// RecvSyscalls/SendSyscalls count kernel entries on each side;
	// syscalls-per-message is the batch path's headline ratio.
	RecvSyscalls, SendSyscalls uint64
	// Flushes counts send-queue flushes (each ≥1 send syscall).
	Flushes uint64
}

// Transport runs one TreeP node on one UDP socket.
type Transport struct {
	conn  *net.UDPConn
	io    batchIO
	node  *core.Node
	start time.Time
	// k holds the node's timers and its clock, time since start as of the
	// loop's last step. Event-loop goroutine only.
	k *sim.Kernel

	loop chan func()
	msgs chan inMsg
	done chan struct{}

	closeOnce sync.Once
	loopWG    sync.WaitGroup
	readWG    sync.WaitGroup

	// Send queue: written only by the event-loop goroutine (every
	// env.Send happens inside a handler, timer or Do closure running on
	// the loop), so it needs no lock. arena is the flat EncodeAppend
	// buffer, pkts the per-datagram offsets.
	arena []byte
	pkts  []spkt

	// Stats counters: atomics, not a mutex — the send and receive paths
	// touch them from different goroutines on every single message.
	recvCount    atomic.Uint64
	sendCount    atomic.Uint64
	decodeErr    atomic.Uint64
	dropCount    atomic.Uint64
	oversize     atomic.Uint64
	recvSyscalls atomic.Uint64
	sendSyscalls atomic.Uint64
	flushCount   atomic.Uint64
}

// env implements core.Env over the transport.
type env struct {
	tr   *Transport
	addr uint64
	rng  *rand.Rand
	sc   core.Scratch // the transport's event loop drives this one node
}

func (e *env) Addr() uint64           { return e.addr }
func (e *env) Now() time.Duration     { return e.tr.k.Now() }
func (e *env) Rand() *rand.Rand       { return e.rng }
func (e *env) Scratch() *core.Scratch { return &e.sc }

// Send queues one datagram on the transport's send queue; the event loop
// flushes the whole queue in one WriteBatch when the current inbound
// burst or timer tick finishes. Encoding appends into the recycled arena
// (zero-copy, zero-alloc in steady state), and a pooled message goes back
// to its pool here — serialisation is the end of its life, the send-side
// mirror of the receive path's end-of-dispatch release. So does one that
// is never sent.
func (e *env) Send(to uint64, msg proto.Message) {
	t := e.tr
	if to == 0 {
		proto.ReleaseDecoded(msg)
		return
	}
	if proto.WireSize(msg) > proto.MaxDatagram {
		// A datagram the socket cannot carry: reject it loudly (counted)
		// instead of letting the kernel truncate or refuse it silently.
		t.oversize.Add(1)
		proto.ReleaseDecoded(msg)
		return
	}
	off := len(t.arena)
	t.arena = proto.EncodeAppend(t.arena, msg)
	t.pkts = append(t.pkts, spkt{off: off, n: len(t.arena) - off, to: to})
	t.sendCount.Add(1)
	proto.ReleaseDecoded(msg)
	if len(t.pkts) >= maxQueuedSends {
		t.flush()
	}
}

func (e *env) SetTimer(d time.Duration, fn func()) core.Timer {
	return e.tr.k.Schedule(d, fn)
}

func (e *env) SetPeriodic(first, every time.Duration, fn func()) core.Timer {
	return e.tr.k.SchedulePeriodic(first, every, fn)
}

// Listen binds a UDP socket on bind (e.g. "127.0.0.1:0") and creates the
// node with the given configuration. The node's overlay address derives
// from the bound socket address.
func Listen(cfg core.Config, bind string, seed int64) (*Transport, error) {
	laddr, err := net.ResolveUDPAddr("udp4", bind)
	if err != nil {
		return nil, fmt.Errorf("udptransport: resolve %q: %w", bind, err)
	}
	conn, err := net.ListenUDP("udp4", laddr)
	if err != nil {
		return nil, fmt.Errorf("udptransport: listen %q: %w", bind, err)
	}
	io, err := newBatchIO(conn)
	if err != nil {
		io = newSingleIO(conn)
	}
	return newTransport(cfg, conn, seed, io)
}

// newTransport assembles a transport around an already-bound socket and a
// chosen batchIO implementation (tests inject scripted ones here).
func newTransport(cfg core.Config, conn *net.UDPConn, seed int64, io batchIO) (*Transport, error) {
	tr := &Transport{
		conn:  conn,
		io:    io,
		start: time.Now(),
		k:     sim.New(seed),
		loop:  make(chan func(), 1024),
		msgs:  make(chan inMsg, 1024),
		done:  make(chan struct{}),
	}
	self := AddrToUint(conn.LocalAddr().(*net.UDPAddr))
	if self == 0 {
		conn.Close()
		return nil, errors.New("udptransport: unsupported local address (need IPv4)")
	}
	e := &env{tr: tr, addr: self, rng: sim.NewRand(seed ^ int64(self))}
	tr.node = core.NewNode(cfg, e)

	tr.readWG.Add(1)
	tr.loopWG.Add(1)
	go tr.readLoop()
	go tr.eventLoop()
	return tr, nil
}

// OverlayAddr returns the node's packed overlay address.
func (t *Transport) OverlayAddr() uint64 { return t.node.Addr() }

// Batched reports whether the kernel batch path (recvmmsg/sendmmsg) is
// active, as opposed to the single-datagram fallback.
func (t *Transport) Batched() bool { return t.io.Batched() }

// Do runs fn on the node's event loop and waits for it, giving callers a
// safe window into protocol state.
func (t *Transport) Do(fn func(n *core.Node)) error {
	doneCh := make(chan struct{})
	select {
	case t.loop <- func() { fn(t.node); close(doneCh) }:
	case <-t.done:
		return errors.New("udptransport: closed")
	}
	select {
	case <-doneCh:
		return nil
	case <-t.done:
		return errors.New("udptransport: closed")
	}
}

// Start arms the node's timers (on the loop).
func (t *Transport) Start() error {
	return t.Do(func(n *core.Node) { n.Start() })
}

// Join bootstraps through the given overlay address.
func (t *Transport) Join(bootstrap uint64) error {
	return t.Do(func(n *core.Node) { n.Join(bootstrap) })
}

// Close shuts the transport down and waits for its goroutines. The event
// loop drains and flushes its final send queue (e.g. a Leave announced
// just before Close) before the socket goes away, so graceful-departure
// datagrams reach the wire.
func (t *Transport) Close() {
	t.closeOnce.Do(func() { close(t.done) })
	t.loopWG.Wait()
	t.conn.Close() // unblocks the read loop
	t.readWG.Wait()
}

// Stats returns the transport's wire counters.
func (t *Transport) Stats() Snapshot {
	return Snapshot{
		Recv:         t.recvCount.Load(),
		Sent:         t.sendCount.Load(),
		DecodeErrs:   t.decodeErr.Load(),
		Drops:        t.dropCount.Load(),
		Oversize:     t.oversize.Load(),
		RecvSyscalls: t.recvSyscalls.Load(),
		SendSyscalls: t.sendSyscalls.Load(),
		Flushes:      t.flushCount.Load(),
	}
}

// flush writes the queued sends in one WriteBatch. Event-loop goroutine
// only.
func (t *Transport) flush() {
	if len(t.pkts) == 0 {
		return
	}
	n := t.io.WriteBatch(t.arena, t.pkts)
	t.sendSyscalls.Add(uint64(n))
	t.flushCount.Add(1)
	t.pkts = t.pkts[:0]
	if cap(t.arena) > 1<<20 {
		// A rare huge flush must not pin a megabyte arena forever.
		t.arena = nil
	} else {
		t.arena = t.arena[:0]
	}
}

// readLoop drains the socket in batches, decodes into pooled messages and
// feeds the inbound ring. Decoded messages own every byte they carry
// (DecodePooled copies out of the slot), so the slots are reusable the
// moment the loop moves on — the ring can lag the socket safely.
func (t *Transport) readLoop() {
	defer t.readWG.Done()
	for {
		select {
		case <-t.done:
			return
		default:
		}
		slots, nsys, err := t.io.ReadBatch()
		t.recvSyscalls.Add(uint64(nsys))
		if err != nil {
			select {
			case <-t.done:
				return
			default:
			}
			// Transient read errors on UDP are ignorable.
			continue
		}
		t.recvCount.Add(uint64(len(slots)))
		for i := range slots {
			s := &slots[i]
			if s.from == 0 {
				// A datagram whose source cannot be represented in the
				// overlay address space is a drop, not a clean receive.
				t.dropCount.Add(1)
				continue
			}
			msg, derr := proto.DecodePooled(s.buf[:s.n])
			if derr != nil {
				t.decodeErr.Add(1)
				continue
			}
			select {
			case t.msgs <- inMsg{from: s.from, msg: msg}:
			case <-t.done:
				proto.ReleaseDecoded(msg)
				return
			}
		}
	}
}

// dispatch hands one inbound message to the node and releases it back to
// its pool — the end-of-dispatch hook; handlers must not retain pooled
// messages or their slices (the same contract netsim enforces).
func (t *Transport) dispatch(m inMsg) {
	t.node.HandleMessage(m.from, m.msg)
	proto.ReleaseDecoded(m.msg)
}

// drainInbound dispatches whatever else already arrived, bounded by
// maxCoalesce, so one flush covers the whole burst.
func (t *Transport) drainInbound() {
	for i := 0; i < maxCoalesce-1; i++ {
		select {
		case m := <-t.msgs:
			t.dispatch(m)
		default:
			return
		}
	}
}

// advance runs the kernel up to the wall clock: every timer due by now
// fires, inline and in due order, and Now moves to the present.
func (t *Transport) advance() { t.k.RunUntil(time.Since(t.start)) }

// eventLoop sleeps until a datagram, a Do closure, the kernel's next due
// time or Close; advances the kernel before the step it woke for; then
// flushes every send the step queued. Timers are fixed-rate, as in the
// simulator: a step that holds the loop past several periods leaves the
// missed ticks due, and the next advance fires each of them in turn.
func (t *Transport) eventLoop() {
	defer t.loopWG.Done()
	wake := time.NewTimer(time.Hour)
	defer wake.Stop()
	for {
		var due <-chan time.Time
		if at, ok := t.k.Next(); ok {
			wake.Reset(at - time.Since(t.start))
			due = wake.C
		}
		select {
		case m := <-t.msgs:
			t.advance()
			t.dispatch(m)
			t.drainInbound()
		case fn := <-t.loop:
			t.advance()
			fn()
		case <-due:
			t.advance()
		case <-t.done:
			// Drain whatever is queued, flush the final sends, then stop
			// the node.
			for {
				select {
				case m := <-t.msgs:
					t.dispatch(m)
				case fn := <-t.loop:
					fn()
				default:
					t.flush()
					t.node.Stop()
					return
				}
			}
		}
		t.flush()
	}
}
