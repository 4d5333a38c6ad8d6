package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Errorf("streams with different seeds matched %d/1000 draws", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	child := parent.Split()
	// The child must not replay the parent's continuation.
	p := make([]uint64, 100)
	for i := range p {
		p[i] = parent.Uint64()
	}
	for i := 0; i < 100; i++ {
		v := child.Uint64()
		for _, pv := range p {
			if v == pv {
				t.Fatalf("child draw %d collided with parent stream", i)
			}
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(3)
	for i := 0; i < 10000; i++ {
		v := s.Intn(17)
		if v < 0 || v >= 17 {
			t.Fatalf("Intn(17) = %d out of range", v)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(9)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(11)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bool(0.3) rate = %v", p)
	}
}

func TestGeometricMean(t *testing.T) {
	s := New(13)
	sum := 0
	const n = 50000
	for i := 0; i < n; i++ {
		sum += s.Geometric(0.25, 1000)
	}
	if mean := float64(sum) / n; math.Abs(mean-4.0) > 0.15 {
		t.Errorf("Geometric(0.25) mean = %v, want ~4", mean)
	}
}

func TestGeometricBounds(t *testing.T) {
	s := New(17)
	for i := 0; i < 10000; i++ {
		v := s.Geometric(0.01, 20)
		if v < 1 || v > 20 {
			t.Fatalf("Geometric out of [1,20]: %d", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(19)
	dst := make([]int, 50)
	s.Perm(dst)
	seen := make([]bool, 50)
	for _, v := range dst {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid permutation: %v", dst)
		}
		seen[v] = true
	}
}

func TestUint64nProperty(t *testing.T) {
	f := func(seed uint64, n uint64) bool {
		if n == 0 {
			n = 1
		}
		return New(seed).Uint64n(n) < n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZeroValueUsable(t *testing.T) {
	var s Stream
	if s.Uint64() == 0 && s.Uint64() == 0 {
		t.Error("zero-value stream produced degenerate output")
	}
}

func TestNewSlabMatchesNew(t *testing.T) {
	seed := func(i int) uint64 { return uint64(i)*0x9e37 + 5 }
	slab := NewSlab(4, seed)
	for i := range slab {
		want := New(seed(i))
		for d := 0; d < 100; d++ {
			if got := slab[i].Uint64(); got != want.Uint64() {
				t.Fatalf("slab stream %d diverged from New(seed(%d)) at draw %d", i, i, d)
			}
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	s := New(1)
	s.Uint64()
	s.Reseed(42)
	want := New(42)
	for d := 0; d < 100; d++ {
		if got := s.Uint64(); got != want.Uint64() {
			t.Fatalf("reseeded stream diverged from New(42) at draw %d", d)
		}
	}
}

// TestChanceMatchesFloat64: Hit(Chance(p)) draws exactly what
// Float64() < p does, on twin streams, at the edges of the threshold
// arithmetic and at 1,000 random p.
func TestChanceMatchesFloat64(t *testing.T) {
	ps := []float64{0, 0x1p-53, 0.3, 0.5, 1 - 0x1p-53, 1, 1.5, -0.1, math.NaN()}
	src := New(23)
	for i := 0; i < 1000; i++ {
		// Half uniform on [0, 1), half log-uniform down to 2^-60.
		p := src.Float64()
		if i%2 == 1 {
			p = math.Ldexp(1+p, -1-src.Intn(60))
		}
		ps = append(ps, p)
	}
	for i, p := range ps {
		a, b := New(uint64(i)), New(uint64(i))
		th := Chance(p)
		for d := 0; d < 10_000; d++ {
			if got, want := a.Hit(th), b.Float64() < p; got != want {
				t.Fatalf("p=%v draw %d: Hit(Chance(p)) = %v, Float64() < p is %v", p, d, got, want)
			}
		}
	}
	// The threshold steps exactly at the multiples of 2^-53 (below 1/2,
	// where the float spacing is finer than 2^-53).
	for _, k := range []uint64{1, 3, 1 << 20, 1<<52 - 1} {
		p := float64(k) * 0x1p-53
		if Chance(p) != k || Chance(math.Nextafter(p, 1)) != k+1 || Chance(math.Nextafter(p, 0)) != k {
			t.Errorf("Chance around %d·2^-53 = %d, %d, %d; want %d, %d, %d", k,
				Chance(math.Nextafter(p, 0)), Chance(p), Chance(math.Nextafter(p, 1)), k, k, k+1)
		}
	}
}
