// Package core implements the TreeP overlay protocol of Hudzia et al.:
// hierarchy creation and maintenance (§III.a–b), the six-table routing
// state (§III.c–d), and the lookup machinery (§III.f), as an event-driven
// state machine independent of any particular transport.
//
// Hierarchy model. A node occupies levels 0..MaxLevel of the overlay
// (§III.c: the superior node list "consists of nodes with more than one
// level"). The members of level j are exactly the nodes with MaxLevel ≥ j;
// within each level they form a bus ordered by ID (§III.a), and the level-j
// tessellation is the midpoint partition of the ID space among the level-j
// members. A node's parent is the nearest member of level MaxLevel+1; its
// children are the nodes that report to it. Elections promote parentless
// well-connected nodes (§III.b), capacity overflows split B+tree-style by
// promoting the strongest child, and parents with fewer than two children
// demote after a capability-scaled countdown.
//
// All state transitions happen on a single logical event loop per node:
// runtimes (the deterministic simulator, the UDP transport) serialise calls
// into HandleMessage and timer callbacks. Node is not safe for concurrent
// use by design — concurrency lives in the runtime, not the protocol.
package core

import (
	"math/rand"
	"time"
	"unsafe"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/routing"
	"treep/internal/rtable"
	"treep/internal/sim"
)

// Timer is a cancellable timer handle (single-shot or periodic; cancelling
// a periodic timer stops all future firings). Every runtime schedules on a
// sim.Kernel, so the handle is the kernel's, held by value; its zero value
// is inert and means "no timer".
type Timer = sim.Timer

// Env is everything a node needs from its runtime: identity, virtual or
// real time, best-effort datagram sending, timers, and a deterministic
// random stream. Implementations must invoke timer callbacks and
// HandleMessage on the same logical event loop.
type Env interface {
	// Addr returns this node's transport address.
	Addr() uint64
	// Now returns the current time (virtual in simulation).
	Now() time.Duration
	// Send transmits a message best-effort; it must not block.
	Send(to uint64, msg proto.Message)
	// SetTimer schedules fn once, after d; the returned handle cancels it.
	SetTimer(d time.Duration, fn func()) Timer
	// SetPeriodic schedules fn after first and then every every until the
	// returned handle is cancelled, on a recurring timer primitive so that
	// steady-state ticks do not re-arm per firing.
	SetPeriodic(first, every time.Duration, fn func()) Timer
	// Rand returns this node's random stream.
	Rand() *rand.Rand
	// Scratch returns the event loop's scratch buffers: the same value for
	// every node the loop drives, and for no node of another loop.
	Scratch() *Scratch
}

// Scratch is the working memory of protocol steps: buffers a step fills,
// reads and is done with before it returns. It belongs to the event loop,
// not the node — a loop runs one step at a time, so the nodes of a
// simulated population share one set of buffers instead of each growing
// its own. The zero value is ready to use.
//
// Ownership rule: nothing in a Scratch may be handed to Env.Send, captured
// by a timer callback, or read after the step returns to the loop; what
// must outlive the step is copied out (a message carries its entries in a
// buffer of its own from proto.EntryBuf, never a scratch slice). Env.Send
// and the timer calls run no node code before they return, which is what
// lets a step keep reading its buffers across them.
type Scratch struct {
	entries, up          []proto.Entry
	refs, peers, members []proto.NodeRef
	ids                  []idspace.ID
	route                routing.Scratch
	sweep                rtable.Scratch
	// excluded is what one routing decision treats as absent: the node's
	// suspects, the peers its hedges left in doubt and the peer the
	// request's last failover found silent.
	excluded [suspectSlots + heldSlots + 1]uint64
}

// MemBytes reports the heap behind the composition buffers (the routing
// and sweep scratches, a few dozen refs each, keep theirs to themselves).
func (sc *Scratch) MemBytes() int {
	return (cap(sc.entries)+cap(sc.up))*int(unsafe.Sizeof(proto.Entry{})) +
		(cap(sc.refs)+cap(sc.peers)+cap(sc.members))*int(unsafe.Sizeof(proto.NodeRef{})) + cap(sc.ids)*8
}
