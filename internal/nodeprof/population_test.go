package nodeprof

import (
	"testing"
	"time"
)

// population draws n profiles.
func population(g *Generator, n int) []Profile {
	out := make([]Profile, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestGeneratorReproducible(t *testing.T) {
	g1 := NewGenerator(DefaultClasses(), 42)
	g2 := NewGenerator(DefaultClasses(), 42)
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("iteration %d: same seed produced different profiles\n%v\n%v", i, a, b)
		}
	}
}

func TestGeneratorDifferentSeedsDiffer(t *testing.T) {
	g1 := NewGenerator(DefaultClasses(), 1)
	g2 := NewGenerator(DefaultClasses(), 2)
	same := 0
	for i := 0; i < 50; i++ {
		if g1.Next() == g2.Next() {
			same++
		}
	}
	if same == 50 {
		t.Fatal("different seeds produced identical populations")
	}
}

func TestPopulationSizeAndValidity(t *testing.T) {
	g := NewGenerator(DefaultClasses(), 7)
	pop := population(g, 500)
	if len(pop) != 500 {
		t.Fatalf("population size %d", len(pop))
	}
	for i, p := range pop {
		if p.CPUGHz <= 0 || p.MemoryMB <= 0 || p.BandwidthKB <= 0 {
			t.Fatalf("profile %d has non-positive capacity: %v", i, p)
		}
		if p.SysLoad < 0 || p.SysLoad > 1 || p.NetLoad < 0 || p.NetLoad > 1 {
			t.Fatalf("profile %d has load outside [0,1]: %v", i, p)
		}
		if s := p.Score(); s < 0 || s > 1 {
			t.Fatalf("profile %d score %v out of range", i, s)
		}
	}
}

func TestDefaultMixtureIsSkewed(t *testing.T) {
	g := NewGenerator(DefaultClasses(), 99)
	pop := population(g, 3000)
	strong, weak := 0, 0
	for _, p := range pop {
		s := p.Score()
		if s > 0.7 {
			strong++
		}
		if s < 0.3 {
			weak++
		}
	}
	if strong == 0 {
		t.Error("expected some server-class peers")
	}
	if weak == 0 {
		t.Error("expected some weak peers")
	}
	if strong >= weak {
		t.Errorf("population should be bottom-heavy: strong=%d weak=%d", strong, weak)
	}
}

func TestUniformClassesAreHomogeneous(t *testing.T) {
	g := NewGenerator(UniformClasses(), 3)
	pop := population(g, 200)
	min, max := 1.0, 0.0
	for _, p := range pop {
		s := p.Score()
		if s < min {
			min = s
		}
		if s > max {
			max = s
		}
	}
	if max-min > 0.15 {
		t.Errorf("uniform population score spread too wide: [%v, %v]", min, max)
	}
}

func TestGeneratorFallsBackOnEmptyClasses(t *testing.T) {
	g := NewGenerator(nil, 1)
	p := g.Next()
	if p.CPUGHz <= 0 {
		t.Fatal("fallback generator produced invalid profile")
	}
	g2 := NewGenerator([]Class{{Name: "zero", Weight: 0}}, 1)
	if g2.Next().CPUGHz <= 0 {
		t.Fatal("all-zero-weight classes should fall back to uniform")
	}
}

func TestClassWeightsRespected(t *testing.T) {
	classes := []Class{
		{Name: "a", Weight: 0.9, Base: Profile{CPUGHz: 8, MemoryMB: 1024, BandwidthKB: 1024, StorageGB: 10, Uptime: time.Hour}},
		{Name: "b", Weight: 0.1, Base: Profile{CPUGHz: 1, MemoryMB: 1024, BandwidthKB: 1024, StorageGB: 10, Uptime: time.Hour}},
	}
	g := NewGenerator(classes, 4)
	highCPU := 0
	n := 2000
	for i := 0; i < n; i++ {
		if g.Next().CPUGHz > 4 {
			highCPU++
		}
	}
	frac := float64(highCPU) / float64(n)
	if frac < 0.8 || frac > 0.98 {
		t.Errorf("class a share %v, want ~0.9", frac)
	}
}
