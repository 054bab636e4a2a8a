package netsim

import (
	"math/rand"
	"testing"
	"time"
)

func TestFixedLatency(t *testing.T) {
	m := FixedLatency(7 * time.Millisecond)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		if d := m.Delay(1, 2, rng); d != 7*time.Millisecond {
			t.Fatalf("delay %v", d)
		}
	}
}

func TestUniformLatencyBounds(t *testing.T) {
	m := UniformLatency{Min: 10 * time.Millisecond, Max: 20 * time.Millisecond}
	rng := rand.New(rand.NewSource(1))
	seen := map[time.Duration]bool{}
	for i := 0; i < 1000; i++ {
		d := m.Delay(1, 2, rng)
		if d < m.Min || d > m.Max {
			t.Fatalf("delay %v outside [%v,%v]", d, m.Min, m.Max)
		}
		seen[d] = true
	}
	if len(seen) < 100 {
		t.Errorf("uniform latency not dispersed: %d distinct values", len(seen))
	}
	degenerate := UniformLatency{Min: 5 * time.Millisecond, Max: 5 * time.Millisecond}
	if d := degenerate.Delay(1, 2, rng); d != 5*time.Millisecond {
		t.Errorf("degenerate uniform = %v", d)
	}
}
