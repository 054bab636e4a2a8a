package nodeprof

import "testing"

// population draws n profiles.
func population(g *Generator, n int) []Profile {
	out := make([]Profile, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

func TestGeneratorReproducible(t *testing.T) {
	g1 := NewGenerator(42)
	g2 := NewGenerator(42)
	for i := 0; i < 100; i++ {
		a, b := g1.Next(), g2.Next()
		if a != b {
			t.Fatalf("iteration %d: same seed produced different profiles\n%v\n%v", i, a, b)
		}
	}
}

func TestGeneratorDifferentSeedsDiffer(t *testing.T) {
	g1 := NewGenerator(1)
	g2 := NewGenerator(2)
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
	g := NewGenerator(7)
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
	g := NewGenerator(99)
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

// TestClassWeightsRespected draws from the default mixture: every server
// peer (5 %, CPU 8 GHz ± 20 %) and no other reaches past 5 GHz (desktops
// top out at 3 GHz + 35 %, transients at 1.5 GHz + 50 %), so the share of
// such peers is the server band's share.
func TestClassWeightsRespected(t *testing.T) {
	classes := defaultClasses()
	if low := classes[0].Base.CPUGHz * (1 - classes[0].Jitter); low <= 5 {
		t.Fatalf("the server band reaches down to %.2f GHz; a 5 GHz cut no longer isolates it", low)
	}
	for _, c := range classes[1:] {
		if top := c.Base.CPUGHz * (1 + c.Jitter); top > 5 {
			t.Fatalf("a non-server band reaches %.2f GHz; a 5 GHz cut no longer isolates the server band", top)
		}
	}
	g := NewGenerator(4)
	servers := 0
	n := 20000
	for i := 0; i < n; i++ {
		if g.Next().CPUGHz > 5 {
			servers++
		}
	}
	frac := float64(servers) / float64(n)
	if frac < 0.04 || frac > 0.06 {
		t.Errorf("server band share %v, want ~0.05", frac)
	}
}
