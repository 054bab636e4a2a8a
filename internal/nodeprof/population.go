package nodeprof

import (
	"math/rand"
	"time"
)

// Class is a band of the peer population with similar hardware. Measured
// P2P populations (e.g. the Napster/Gnutella host studies the paper cites)
// are strongly skewed: a few well-provisioned, long-lived hosts and a large
// mass of weak, transient ones. Populations are described as a mixture of
// classes.
type Class struct {
	Name string
	// Weight is the relative share of peers drawn from this class.
	Weight float64
	// Base profile for the class; individual peers jitter around it.
	Base Profile
	// Jitter is the maximum relative perturbation (±) applied per dimension.
	Jitter float64
}

// DefaultClasses is a three-band mixture: server-class peers (5%),
// desktops (35%), and weak transient peers (60%). The shares follow the
// shape (not the exact numbers) of the host-measurement studies in the
// paper's references.
func DefaultClasses() []Class {
	return []Class{
		{
			Name:   "server",
			Weight: 0.05,
			Base: Profile{
				CPUGHz: 8, MemoryMB: 16384, BandwidthKB: 12800,
				StorageGB: 500, Uptime: 45 * 24 * time.Hour,
				SysLoad: 0.2, NetLoad: 0.2,
			},
			Jitter: 0.2,
		},
		{
			Name:   "desktop",
			Weight: 0.35,
			Base: Profile{
				CPUGHz: 3, MemoryMB: 4096, BandwidthKB: 2560,
				StorageGB: 120, Uptime: 7 * 24 * time.Hour,
				SysLoad: 0.4, NetLoad: 0.35,
			},
			Jitter: 0.35,
		},
		{
			Name:   "transient",
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

// UniformClasses is a homogeneous population (every peer a mid-range
// desktop); useful as a control in ablations.
func UniformClasses() []Class {
	return []Class{{
		Name:   "uniform",
		Weight: 1,
		Base: Profile{
			CPUGHz: 3, MemoryMB: 4096, BandwidthKB: 2560,
			StorageGB: 120, Uptime: 7 * 24 * time.Hour,
			SysLoad: 0.4, NetLoad: 0.4,
		},
		Jitter: 0.05,
	}}
}

// Generator draws peer profiles from a class mixture with a private RNG so
// populations are reproducible from a seed.
type Generator struct {
	classes []Class
	total   float64
	rng     *rand.Rand
}

// NewGenerator builds a Generator over the given classes. Classes with
// non-positive weight are ignored; an empty (or fully ignored) class list
// falls back to UniformClasses.
func NewGenerator(classes []Class, seed int64) *Generator {
	kept := make([]Class, 0, len(classes))
	total := 0.0
	for _, c := range classes {
		if c.Weight > 0 {
			kept = append(kept, c)
			total += c.Weight
		}
	}
	if len(kept) == 0 {
		kept = UniformClasses()
		total = kept[0].Weight
	}
	return &Generator{classes: kept, total: total, rng: rand.New(rand.NewSource(seed))}
}

// Next draws one profile.
func (g *Generator) Next() Profile {
	c := g.pick()
	j := func(v float64) float64 {
		if c.Jitter <= 0 {
			return v
		}
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

func (g *Generator) pick() Class {
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
