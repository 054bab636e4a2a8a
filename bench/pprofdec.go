package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A minimal decoder for the gzipped-protobuf CPU profile runtime/pprof
// writes: enough of profile.proto (samples, locations, functions, string
// table) to attribute each sample's value to a package. It exists so the
// benchmark needs neither `go tool pprof` nor a dependency.

// profSample is one stack with its sample values; stack[0] is the leaf.
type profSample struct {
	stack  []string // function names, leaf first, inlined frames expanded
	values []int64
}

type protoBuf struct{ b []byte }

var errTruncated = errors.New("pprof: truncated message")

func (p *protoBuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("pprof: varint overflow")
}

// field reads one field header and its payload: num is the field number,
// v the value of a varint field, data the bytes of a length-delimited one.
func (p *protoBuf) field() (num int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			return
		}
		if uint64(len(p.b)) < n {
			return 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("pprof: unsupported wire type %d", key&7)
	}
	return
}

// repeated appends a repeated varint field that may arrive packed
// (data != nil) or one value at a time.
func repeated(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	p := protoBuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile parses a runtime/pprof profile into stacks of function
// names with their sample values (a CPU profile carries samples/count
// and cpu/nanoseconds, in that order).
func decodeProfile(raw []byte) ([]profSample, error) {
	if len(raw) >= 2 && raw[0] == 0x1f && raw[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
		if raw, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("pprof: %w", err)
		}
	}
	type rawSample struct{ locs, values []uint64 }
	var samples []rawSample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]uint64{}   // function id -> string index
	var strs []string

	p := protoBuf{raw}
	for len(p.b) > 0 {
		num, _, data, err := p.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s rawSample
			q := protoBuf{data}
			for len(q.b) > 0 {
				n, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					s.values, err = repeated(s.values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := protoBuf{data}
			for len(q.b) > 0 {
				n, v, d, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					r := protoBuf{d}
					for len(r.b) > 0 {
						ln, lv, _, err := r.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			q := protoBuf{data}
			for len(q.b) > 0 {
				n, v, _, err := q.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}

	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		ps := profSample{values: make([]int64, len(s.values))}
		for i, v := range s.values {
			ps.values[i] = int64(v)
		}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// cpuRows are the CPU ledger's rows: this repository's packages (the
// layers), the runtime split by what it was doing, the kernel boundary,
// the benchmark's own code, and the unattributed remainder.
var cpuRows = []string{
	"sim", "netsim", "simrt", "core", "rtable", "routing", "proto", "svc", "dht",
	"udptransport", "scenario", "idspace", "nodeprof",
	"runtime.gc", "runtime.alloc", "runtime.sched", "syscall", "bench", "other",
}

// funcPackage splits a pprof function name into its package path:
// "treep/internal/core.(*Node).send" -> "treep/internal/core".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// Keyword tables for the runtime rows, matched against the lower-cased
// function name without its package. Order matters: "mallocgc" is the
// allocator although it contains "gc", so the allocator is asked first.
var (
	allocWords = []string{"malloc", "newobject", "makeslice", "growslice", "newarray", "nextfree",
		"mcache", "mcentral", "mheap", "memclr", "heapsetype"}
	gcWords = []string{"gc", "scan", "mark", "sweep", "scavenge", "wbbuf", "greyobject", "findobject", "spanof",
		"typepointers"}
	schedWords = []string{"schedule", "findrunnable", "park", "ready", "futex", "usleep", "osyield", "netpoll",
		"epoll", "stealwork", "runq", "mcall", "wakep", "startm", "stopm", "note", "lock", "execute", "gosched",
		"goexit", "chan", "selectgo", "sudog", "spinning", "timer", "syscall", "casgstatus", "pidle", "mput", "mget",
		"handoffp", "retake", "sysmon", "sema", "morestack", "newstack", "systemstack", "mstart", "gfget", "newproc"}
)

func containsAny(s string, words []string) bool {
	for _, w := range words {
		if strings.Contains(s, w) {
			return true
		}
	}
	return false
}

// runtimeClass sorts a runtime function into the allocator, the
// collector or the scheduler; "" means plain helper code (map access,
// memmove, interface conversion) that belongs to its caller.
func runtimeClass(fn string) string {
	name := strings.ToLower(fn[strings.LastIndexByte(fn, '/')+1:])
	name = strings.TrimPrefix(name, "runtime.")
	switch {
	case containsAny(name, allocWords):
		return "runtime.alloc"
	case containsAny(name, gcWords):
		return "runtime.gc"
	case containsAny(name, schedWords):
		return "runtime.sched"
	}
	return ""
}

func isRuntimePkg(pkg string) bool {
	return pkg == "runtime" || pkg == "internal/abi" || pkg == "internal/bytealg" || pkg == "internal/cpu" ||
		strings.HasPrefix(pkg, "internal/runtime/") && pkg != "internal/runtime/syscall"
}

func isSyscallPkg(pkg string) bool {
	return pkg == "syscall" || pkg == "internal/runtime/syscall" || pkg == "internal/poll" ||
		pkg == "internal/syscall/unix"
}

// rowFor attributes one stack (leaf first) to a ledger row. The sample
// is charged to the innermost frame that belongs to this repository: a
// package's row is its own code plus the standard-library helpers it
// called. Collector, allocator, scheduler and system-call frames met on
// the way up take the sample instead, because those are the rows an
// optimisation of a layer moves without touching the layer's own code.
// A system call made by the idle scheduler (epoll, futex) is scheduler
// time, not I/O.
func rowFor(stack []string) string {
	for i, fn := range stack {
		pkg := funcPackage(fn)
		switch {
		case isRuntimePkg(pkg):
			if c := runtimeClass(fn); c != "" {
				return c
			}
		case isSyscallPkg(pkg):
			for _, up := range stack[i+1:] {
				if isRuntimePkg(funcPackage(up)) && runtimeClass(up) == "runtime.sched" {
					return "runtime.sched"
				}
			}
			return "syscall"
		case pkg == "main" || pkg == "treep/bench":
			return "bench"
		case strings.HasPrefix(pkg, "treep/internal/"):
			layer := strings.TrimPrefix(pkg, "treep/internal/")
			for _, r := range cpuRows {
				if r == layer {
					return r
				}
			}
			return "other"
		case pkg == "treep":
			return "other"
		}
	}
	return "other"
}

// cpuLedger reduces a CPU profile to percentages by row; the rows sum to
// 100 (all zero for an empty profile). total is the profiled CPU time in
// nanoseconds.
func cpuLedger(samples []profSample) (pct map[string]float64, total int64) {
	sums := map[string]int64{}
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		v := s.values[len(s.values)-1] // cpu/nanoseconds is the last value
		sums[rowFor(s.stack)] += v
		total += v
	}
	pct = make(map[string]float64, len(cpuRows))
	for _, r := range cpuRows {
		if total > 0 {
			pct[r] = 100 * float64(sums[r]) / float64(total)
		} else {
			pct[r] = 0
		}
	}
	return pct, total
}
