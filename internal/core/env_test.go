package core

import (
	"math/rand"
	"sort"
	"time"

	"treep/internal/idspace"
	"treep/internal/proto"
	"treep/internal/sim"
)

// fakeEnv is a manually driven core.Env for unit tests: sent messages are
// recorded, timers sit on a sim.Kernel and fire only when the test advances
// the clock.
type fakeEnv struct {
	addr uint64
	// now mirrors the kernel clock: set before every timer callback and at
	// the end of every advance, so tests read it as a plain field.
	now  time.Duration
	k    *sim.Kernel
	sent []sentMsg
	rng  *rand.Rand
	// sc is the loop scratch: the env's own unless a test points several
	// envs at one, as the nodes of a simulated loop share theirs.
	sc *Scratch
}

type sentMsg struct {
	to  uint64
	msg proto.Message
}

func newFakeEnv(addr uint64) *fakeEnv {
	return &fakeEnv{addr: addr, k: sim.New(int64(addr)), rng: rand.New(rand.NewSource(int64(addr))), sc: &Scratch{}}
}

func (e *fakeEnv) Addr() uint64       { return e.addr }
func (e *fakeEnv) Now() time.Duration { return e.now }
func (e *fakeEnv) Rand() *rand.Rand   { return e.rng }
func (e *fakeEnv) Scratch() *Scratch  { return e.sc }

func (e *fakeEnv) Send(to uint64, msg proto.Message) {
	e.sent = append(e.sent, sentMsg{to: to, msg: msg})
}

func (e *fakeEnv) SetTimer(d time.Duration, fn func()) Timer {
	return e.k.Schedule(d, e.at(fn))
}

func (e *fakeEnv) SetPeriodic(first, every time.Duration, fn func()) Timer {
	return e.k.SchedulePeriodic(first, every, e.at(fn))
}

// at wraps a timer callback so the now field reads the firing instant.
func (e *fakeEnv) at(fn func()) func() {
	return func() { e.now = e.k.Now(); fn() }
}

// advance moves the clock forward, firing due timers in time order.
func (e *fakeEnv) advance(d time.Duration) {
	e.k.RunFor(d)
	e.now = e.k.Now()
}

// drain returns and clears the recorded sends.
func (e *fakeEnv) drain() []sentMsg {
	out := e.sent
	e.sent = nil
	return out
}

// sentTo filters recorded sends by destination without clearing.
func (e *fakeEnv) sentTo(addr uint64) []proto.Message {
	var out []proto.Message
	for _, s := range e.sent {
		if s.to == addr {
			out = append(out, s.msg)
		}
	}
	return out
}

// sentOfType returns all recorded messages matching the given type check.
func msgsOfType[T proto.Message](msgs []sentMsg) []T {
	var out []T
	for _, s := range msgs {
		if m, ok := s.msg.(T); ok {
			out = append(out, m)
		}
	}
	return out
}

// mkRef builds a test NodeRef.
func mkRef(id idspace.ID, addr uint64, lvl uint8) proto.NodeRef {
	return proto.NodeRef{ID: id, Addr: addr, MaxLevel: lvl, Score: 30000}
}

// testNode builds a started node with the given ID/address and fast timers.
func testNode(id idspace.ID, addr uint64, mutate ...func(*Config)) (*Node, *fakeEnv) {
	env := newFakeEnv(addr)
	cfg := Defaults()
	cfg.ID = id
	for _, m := range mutate {
		m(&cfg)
	}
	n := NewNode(cfg, env)
	n.Start()
	env.drain() // discard any startup traffic
	return n, env
}

// sortedAddrs lists destination addresses of the recorded sends.
func sortedAddrs(msgs []sentMsg) []uint64 {
	var out []uint64
	for _, m := range msgs {
		out = append(out, m.to)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
