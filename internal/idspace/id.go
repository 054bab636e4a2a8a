// Package idspace models the one-dimensional identifier space on which the
// TreeP overlay is built.
//
// TreeP (Hudzia et al., 2005) maps every peer onto a 1-D coordinate space
// via its node ID; the hierarchy is a tessellation of that space at each
// level. This package provides the ID type, the Euclidean metric the paper's
// distance function is built from, interval ("region") arithmetic for
// tessellations, and the ID-assignment strategies of §III in use (hash of
// address and range-balanced placement).
package idspace

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// ID is a coordinate in the 1-D identifier space. The space is the full
// uint64 range [0, MaxID]. IDs are *not* treated as a ring: the paper uses
// plain Euclidean distance on the line (its hierarchy is a B+tree over an
// interval, not a Chord-style circle).
type ID uint64

// MaxID is the largest coordinate in the space.
const MaxID ID = ^ID(0)

// SpaceExtent is the total extent L of the ID space as a float64. It is the
// "L" term of the paper's distance function D (see package routing).
const SpaceExtent = float64(MaxID)

// String renders the ID in fixed-width hexadecimal, which keeps log output
// sortable in ID order.
func (id ID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// Dist returns the Euclidean distance d(a, b) = |a - b| on the line.
func Dist(a, b ID) uint64 {
	if a > b {
		return uint64(a - b)
	}
	return uint64(b - a)
}

// DistF returns Dist as a float64, the form used inside the routing distance
// function where it is compared against fractions of SpaceExtent.
func DistF(a, b ID) float64 { return float64(Dist(a, b)) }

// Mid returns the midpoint of a and b without overflow.
func Mid(a, b ID) ID {
	if a > b {
		a, b = b, a
	}
	return a + (b-a)/2
}

// FromFraction maps f in [0,1] to an ID. Values outside [0,1] are clamped.
// It is used by range-balanced assignment and by tests that need evenly
// spread coordinates.
func FromFraction(f float64) ID {
	if f <= 0 {
		return 0
	}
	if f >= 1 {
		return MaxID
	}
	return ID(f * SpaceExtent)
}

// HashAddr derives an ID from an opaque address string (e.g. "ip:port"),
// the paper's "hash of the IP/Port numbers" assignment. FNV-1a provides
// the byte absorption; a splitmix64 finaliser spreads the result across
// the whole space — raw FNV of short suffix-varying strings ("node-1",
// "node-2", …) differs only in low bits, which would pile every key onto
// one owner.
func HashAddr(addr string) ID {
	h := fnv.New64a()
	_, _ = h.Write([]byte(addr))
	return ID(finalize(h.Sum64()))
}

// HashKey derives an ID for an arbitrary byte key. The DHT and discovery
// layers use it to place objects in the same space as nodes.
func HashKey(key []byte) ID {
	h := fnv.New64a()
	_, _ = h.Write(key)
	return ID(finalize(h.Sum64()))
}

// Phase returns a delay in (0, period] that is a pure function of id. The ID
// is mixed first: id mod period of evenly spaced IDs is one arithmetic
// progression, all on one phase if the gap is a multiple of the period.
func Phase(id ID, period time.Duration) time.Duration {
	return 1 + time.Duration(finalize(uint64(id))%uint64(period))
}

// finalize is the splitmix64 finaliser: a bijective mixer that spreads
// low-bit differences across all 64 bits.
func finalize(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// BalancedAssigner spreads n nodes evenly over the space with optional
// jitter, realising the paper's "preliminary search for an ID range to
// choose from ... allow the system to maintain a balanced tree" (of the
// §III strategies — random, hash of the address, range-balanced — the one
// the simulator uses; real peers hash their address, HashAddr).
// JitterFrac ∈ [0,1) perturbs each coordinate by at most that fraction of
// one inter-node gap.
type BalancedAssigner struct {
	Rand       *rand.Rand
	JitterFrac float64
}

// Assign returns the ID for the i-th of n nodes.
func (b BalancedAssigner) Assign(i, n int) ID {
	if n <= 0 {
		return 0
	}
	gap := SpaceExtent / float64(n)
	base := gap * (float64(i) + 0.5)
	if b.JitterFrac > 0 && b.Rand != nil {
		base += (b.Rand.Float64() - 0.5) * gap * b.JitterFrac
	}
	if base < 0 {
		base = 0
	}
	return FromFraction(base / SpaceExtent)
}

// NearestIndex returns the index into the sorted slice ids of the ID whose
// Euclidean distance to x is smallest. Ties resolve to the lower ID so the
// choice is deterministic. It panics on an empty slice — callers decide what
// an empty neighbourhood means.
func NearestIndex(ids []ID, x ID) int {
	if len(ids) == 0 {
		panic("idspace: NearestIndex on empty slice")
	}
	i := sort.Search(len(ids), func(i int) bool { return ids[i] >= x })
	switch {
	case i == 0:
		return 0
	case i == len(ids):
		return len(ids) - 1
	}
	if Dist(ids[i-1], x) <= Dist(ids[i], x) {
		return i - 1
	}
	return i
}
