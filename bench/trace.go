package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"treep/internal/netsim"
	"treep/internal/proto"
)

// span is one interval the benchmark recorded around a call it made into
// a layer. Times are host nanoseconds since the tracer started; VStart
// and VEnd are the simulator's virtual clock where there is one. Spans
// are recorded from the benchmark's files only: spans inside the program
// are a later change.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	VStart int64  `json:"vstart_ns,omitempty"`
	VEnd   int64  `json:"vend_ns,omitempty"`
}

// maxMsgType bounds the per-type counter arrays (proto.MsgType is a
// uint8 with a few dozen values in use).
const maxMsgType = 64

// ledger is the datagram accounting of one measured window, filled by
// the netsim trace hook.
type ledger struct {
	sends   uint64
	bytes   uint64
	toDead  uint64
	byType  [maxMsgType]uint64
	handled []uint64 // delivered-to counts by destination address
}

// tracer holds what a traced run records: spans in memory, written out
// at exit, and the datagram ledger. A nil tracer is the untraced run:
// every method is a no-op on it, so call sites carry no branches.
type tracer struct {
	t0     time.Time
	vclock func() time.Duration
	spans  []span
	led    ledger
	// counting gates the ledger to the measured window.
	counting bool
}

func newTracer() *tracer { return &tracer{t0: time.Now(), spans: make([]span, 1, 1<<16)} }

// begin opens a span and returns its id (0 on the untraced run; slot 0
// of spans is reserved so 0 can mean "no span").
func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	s := span{ID: int32(len(t.spans)), Parent: parent, Name: name, Start: int64(time.Since(t.t0))}
	if t.vclock != nil {
		s.VStart = int64(t.vclock())
	}
	t.spans = append(t.spans, s)
	return s.ID
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	s := &t.spans[id]
	s.End = int64(time.Since(t.t0))
	if t.vclock != nil {
		s.VEnd = int64(t.vclock())
	}
}

// window opens or closes the measured window for the datagram ledger.
func (t *tracer) window(open bool) {
	if t != nil {
		t.counting = open
	}
}

// datagram is the netsim.WithTrace hook. The network calls it once per
// send, and a second time with Reason "dead" when the datagram reaches a
// peer that has stopped; only the first is a send.
func (t *tracer) datagram(ev netsim.TraceEvent) {
	if !t.counting {
		return
	}
	l := &t.led
	if ev.Dropped && ev.Reason == "dead" {
		l.toDead++
		return
	}
	l.sends++
	l.bytes += uint64(ev.Size)
	if m, ok := ev.Payload.(proto.Message); ok {
		if ty := int(m.Type()); ty < maxMsgType {
			l.byType[ty]++
		}
	}
	if !ev.Dropped {
		for int(ev.To) >= len(l.handled) {
			l.handled = append(l.handled, make([]uint64, 1024)...)
		}
		l.handled[ev.To]++
	}
}

// msgClass is the message ledger's row for a wire type: the maintenance
// plane split three ways, then the two request planes. A type this table
// does not know lands in "other", so a new or renamed message shows up
// as a row instead of vanishing from the ledger.
func msgClass(name string) string {
	switch name {
	case "hello", "ping", "pong", "child-report":
		return "keepalive"
	case "join-request", "join-redirect", "join-accept", "election-call", "parent-claim",
		"promote-grant", "demote", "bus-link-req", "bus-link-ack", "reparent", "leave":
		return "hierarchy"
	case "ring-probe", "ring-probe-ack", "merge-intro":
		return "repair"
	case "lookup-request", "lookup-reply":
		return "lookup"
	case "dht-store", "dht-store-ack", "dht-fetch", "dht-fetch-reply", "dht-replicate", "dht-replicate-ack":
		return "dht"
	}
	return "other"
}

// msgTypeName is the wire name of a message type number.
func msgTypeName(ty int) string { return proto.MsgType(ty).String() }

// byClass folds the per-type counters into the ledger's rows.
func (l *ledger) byClass() map[string]uint64 {
	out := map[string]uint64{}
	for ty, n := range l.byType {
		if n > 0 {
			out[msgClass(msgTypeName(ty))] += n
		}
	}
	return out
}

// writeSpans writes the spans as JSON lines under bench/out/.
func (t *tracer) writeSpans(workload string) (string, error) {
	dir := filepath.Join(benchDir(), "out")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans[1:] {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("trace output: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("trace output: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("trace output: %w", err)
	}
	return path, nil
}

// benchDir is the benchmark's own directory: the working directory when
// run from bench/ (go run .), bench/ under it when run from the root.
func benchDir() string {
	if _, err := os.Stat("bench/go.mod"); err == nil {
		return "bench"
	}
	return "."
}
