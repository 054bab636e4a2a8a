package netsim

import (
	"math/rand"
	"time"
)

// LatencyModel produces one-way datagram delays.
type LatencyModel interface {
	Delay(from, to Addr, rng *rand.Rand) time.Duration
}

// Floorer is implemented by latency models that can state a lower bound
// on every delay they produce. The sharded engine's lookahead — the
// epoch length of the conservative parallel simulation — is exactly this
// floor, so sharded networks require their model to implement it with a
// positive value.
type Floorer interface {
	Floor() time.Duration
}

// FixedLatency delays every datagram by the same amount; the right model
// for analytical checks because hop counts translate linearly to time.
type FixedLatency time.Duration

// Delay implements LatencyModel.
func (f FixedLatency) Delay(_, _ Addr, _ *rand.Rand) time.Duration { return time.Duration(f) }

// Floor implements Floorer: every delay is the fixed value.
func (f FixedLatency) Floor() time.Duration { return time.Duration(f) }

// UniformLatency draws delays uniformly from [Min, Max].
type UniformLatency struct {
	Min, Max time.Duration
}

// Delay implements LatencyModel.
func (u UniformLatency) Delay(_, _ Addr, rng *rand.Rand) time.Duration {
	if u.Max <= u.Min {
		return u.Min
	}
	return u.Min + time.Duration(rng.Int63n(int64(u.Max-u.Min)))
}

// Floor implements Floorer: no draw undercuts Min.
func (u UniformLatency) Floor() time.Duration { return u.Min }
