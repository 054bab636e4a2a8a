package nodeprof

import (
	"math/rand"
	"time"
)

// class is a band of the peer population with similar hardware. Measured
// P2P populations (e.g. the Napster/Gnutella host studies the paper cites)
// are strongly skewed: a few well-provisioned, long-lived hosts and a large
// mass of weak, transient ones. Populations are described as a mixture of
// classes.
type class struct {
	// Weight is the relative share of peers drawn from this class.
	Weight float64
	// Base profile for the class; individual peers jitter around it.
	Base Profile
	// Jitter is the maximum relative perturbation (±) applied per dimension.
	Jitter float64
}

// defaultClasses is the population's three-band mixture: server-class
// peers (5%), desktops (35%), and weak transient peers (60%). The shares
// follow the shape (not the exact numbers) of the host-measurement studies
// in the paper's references.
func defaultClasses() []class {
	return []class{
		{
			Weight: 0.05,
			Base: Profile{
				CPUGHz: 8, MemoryMB: 16384, BandwidthKB: 12800,
				StorageGB: 500, Uptime: 45 * 24 * time.Hour,
				SysLoad: 0.2, NetLoad: 0.2,
			},
			Jitter: 0.2,
		},
		{
			Weight: 0.35,
			Base: Profile{
				CPUGHz: 3, MemoryMB: 4096, BandwidthKB: 2560,
				StorageGB: 120, Uptime: 7 * 24 * time.Hour,
				SysLoad: 0.4, NetLoad: 0.35,
			},
			Jitter: 0.35,
		},
		{
			Weight: 0.60,
			Base: Profile{
				CPUGHz: 1.5, MemoryMB: 1024, BandwidthKB: 640,
				StorageGB: 20, Uptime: 8 * time.Hour,
				SysLoad: 0.6, NetLoad: 0.5,
			},
			Jitter: 0.5,
		},
	}
}

// Generator draws peer profiles from a class mixture with a private RNG so
// populations are reproducible from a seed.
type Generator struct {
	classes []class
	total   float64
	rng     *rand.Rand
}

// NewGenerator builds a Generator over the default mixture. The weights
// are summed in list order, the order pick adds them up in.
func NewGenerator(seed int64) *Generator {
	classes := defaultClasses()
	total := 0.0
	for _, c := range classes {
		total += c.Weight
	}
	return &Generator{classes: classes, total: total, rng: rand.New(rand.NewSource(seed))}
}

// Next draws one profile.
func (g *Generator) Next() Profile {
	c := g.pick()
	j := func(v float64) float64 {
		f := 1 + (g.rng.Float64()*2-1)*c.Jitter
		if f < 0.05 {
			f = 0.05
		}
		return v * f
	}
	p := Profile{
		CPUGHz:      j(c.Base.CPUGHz),
		MemoryMB:    int(j(float64(c.Base.MemoryMB))),
		BandwidthKB: int(j(float64(c.Base.BandwidthKB))),
		StorageGB:   int(j(float64(c.Base.StorageGB))),
		Uptime:      time.Duration(j(float64(c.Base.Uptime))),
		SysLoad:     clamp01(j(c.Base.SysLoad)),
		NetLoad:     clamp01(j(c.Base.NetLoad)),
	}
	return p
}

func (g *Generator) pick() class {
	r := g.rng.Float64() * g.total
	acc := 0.0
	for _, c := range g.classes {
		acc += c.Weight
		if r < acc {
			return c
		}
	}
	return g.classes[len(g.classes)-1]
}

func clamp01(v float64) float64 {
	if v < 0 || v != v { // NaN guard: a poisoned sample must not stick
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
