package nodeprof

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// TestGeneratorGolden pins the generator's draw order: the first 1 000
// profiles at seeds 1 and 42 hash to recorded values. Every simulated
// population and every benchmark profile comes from this generator, so a
// change that reorders a draw, or sums the weights in another order,
// resamples every trajectory and shows here first.
func TestGeneratorGolden(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		want uint64
	}{
		{1, 0x82c5a062cff880b3},
		{42, 0x3b0b606e5ba7a21b},
	} {
		g := NewGenerator(tc.seed)
		h := fnv.New64a()
		var b [8]byte
		put := func(v uint64) {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
		for i := 0; i < 1000; i++ {
			p := g.Next()
			put(math.Float64bits(p.CPUGHz))
			put(uint64(p.MemoryMB))
			put(uint64(p.BandwidthKB))
			put(uint64(p.StorageGB))
			put(uint64(p.Uptime))
			put(math.Float64bits(p.SysLoad))
			put(math.Float64bits(p.NetLoad))
		}
		if got := h.Sum64(); got != tc.want {
			t.Errorf("seed %d: first 1000 profiles hash to %#x, want %#x", tc.seed, got, tc.want)
		}
	}
}
