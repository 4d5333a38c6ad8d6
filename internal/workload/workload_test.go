package workload

import (
	"math"
	"testing"

	"gpgpunoc/internal/rng"
)

func TestTwentyFiveBenchmarks(t *testing.T) {
	if got := len(Names()); got != 25 {
		t.Errorf("benchmark count = %d, want 25 (the paper's evaluation set)", got)
	}
}

func TestPaperBenchmarksPresent(t *testing.T) {
	// The union of the benchmarks named in Figures 2, 7-10.
	for _, name := range []string{
		"CP", "LIB", "LPS", "MUM", "NN", "NQU", "RAY", "STO",
		"FWT", "HST", "RED", "SCL", "SM",
		"BPR", "BFS", "HOT", "LUD", "NW", "SRAD", "KMN",
		"MM", "PVC", "PVR", "SS", "WC",
	} {
		if _, err := Get(name); err != nil {
			t.Errorf("missing benchmark %s: %v", name, err)
		}
	}
}

func TestAllProfilesValid(t *testing.T) {
	for _, p := range All() {
		if err := p.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestSuites(t *testing.T) {
	want := map[string]bool{"CUDA SDK": true, "ISPASS": true, "MapReduce": true, "Rodinia": true}
	got := Suites()
	if len(got) != len(want) {
		t.Fatalf("suites = %v", got)
	}
	for _, s := range got {
		if !want[s] {
			t.Errorf("unexpected suite %q", s)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("NOPE"); err == nil {
		t.Error("unknown benchmark must error")
	}
}

func TestRAYIsWriteHeavy(t *testing.T) {
	// Section 3.1.1: RAY contains more request than reply traffic due to
	// its write demand; its store fraction must dominate the suite.
	ray := MustGet("RAY")
	if ray.StoreFraction <= 0.5 {
		t.Errorf("RAY store fraction = %v, want > 0.5", ray.StoreFraction)
	}
	for _, p := range All() {
		if p.Name != "RAY" && p.StoreFraction > ray.StoreFraction {
			t.Errorf("%s store fraction %v exceeds RAY's %v", p.Name, p.StoreFraction, ray.StoreFraction)
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	a := NewGenerator(MustGet("KMN"), 7, 3, 5, 48)
	b := NewGenerator(MustGet("KMN"), 7, 3, 5, 48)
	for i := 0; i < 10000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("streams diverged at instruction %d", i)
		}
	}
}

func TestGeneratorSeedsDiffer(t *testing.T) {
	a := NewGenerator(MustGet("KMN"), 7, 3, 5, 48)
	b := NewGenerator(MustGet("KMN"), 8, 3, 5, 48)
	same := 0
	for i := 0; i < 1000; i++ {
		ia, ib := a.Next(), b.Next()
		if ia == ib {
			same++
		}
	}
	if same > 900 {
		t.Errorf("different seeds produced %d/1000 identical instructions", same)
	}
}

func TestGeneratorWarpsDiffer(t *testing.T) {
	a := NewGenerator(MustGet("BFS"), 7, 0, 0, 48)
	b := NewGenerator(MustGet("BFS"), 7, 0, 1, 48)
	diff := false
	for i := 0; i < 100; i++ {
		if a.Next() != b.Next() {
			diff = true
			break
		}
	}
	if !diff {
		t.Error("warps 0 and 1 generated identical streams")
	}
}

func TestGeneratorMixMatchesProfile(t *testing.T) {
	prof := MustGet("KMN")
	g := NewGenerator(prof, 1, 0, 0, 48)
	const n = 200000
	mem, stores := 0, 0
	for i := 0; i < n; i++ {
		in := g.Next()
		switch in.Kind {
		case Load:
			mem++
		case Store:
			mem++
			stores++
		case Compute:
			if in.Latency < 1 {
				t.Fatal("compute latency < 1")
			}
		}
	}
	memFrac := float64(mem) / n
	if math.Abs(memFrac-prof.MemFraction) > 0.01 {
		t.Errorf("memory fraction = %v, profile says %v", memFrac, prof.MemFraction)
	}
	storeFrac := float64(stores) / float64(mem)
	if math.Abs(storeFrac-prof.StoreFraction) > 0.02 {
		t.Errorf("store fraction = %v, profile says %v", storeFrac, prof.StoreFraction)
	}
}

func TestGeneratorAddressesInFootprint(t *testing.T) {
	for _, name := range []string{"CP", "BFS", "RAY"} {
		prof := MustGet(name)
		g := NewGenerator(prof, 3, 10, 20, 48)
		for i := 0; i < 50000; i++ {
			in := g.Next()
			if in.Kind != Load && in.Kind != Store {
				continue
			}
			if in.Addr >= prof.FootprintBytes {
				t.Fatalf("%s: address %#x outside footprint %#x", name, in.Addr, prof.FootprintBytes)
			}
			if in.Addr%accessBytes != 0 {
				t.Fatalf("%s: address %#x not %d-byte aligned", name, in.Addr, accessBytes)
			}
		}
	}
}

func TestLocalityProducesSequentialRuns(t *testing.T) {
	// A high-locality profile must emit mostly +32B strides.
	prof := MustGet("RED") // locality 0.90
	g := NewGenerator(prof, 5, 0, 0, 48)
	var prev uint64
	first := true
	seq, total := 0, 0
	for i := 0; i < 100000; i++ {
		in := g.Next()
		if in.Kind != Load && in.Kind != Store {
			continue
		}
		if !first {
			total++
			if in.Addr == (prev+accessBytes)%prof.FootprintBytes {
				seq++
			}
		}
		prev, first = in.Addr, false
	}
	frac := float64(seq) / float64(total)
	if math.Abs(frac-prof.Locality) > 0.02 {
		t.Errorf("sequential fraction = %v, locality says %v", frac, prof.Locality)
	}
}

func TestValidateRejections(t *testing.T) {
	base := MustGet("CP")
	bad := []func(*Profile){
		func(p *Profile) { p.Name = "" },
		func(p *Profile) { p.MemFraction = 1.5 },
		func(p *Profile) { p.StoreFraction = -0.1 },
		func(p *Profile) { p.Locality = 2 },
		func(p *Profile) { p.FootprintBytes = 0 },
		func(p *Profile) { p.FootprintBytes = accessBytes - 1 },
		func(p *Profile) { p.RunAhead = 0 },
		func(p *Profile) { p.LongOpFraction = -0.1 },
		func(p *Profile) { p.LongOpFraction = 1.5 },
	}
	for i, mutate := range bad {
		p := base
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	// One access is the smallest footprint: the cursor's single-subtract
	// wrap needs the stride to fit in it.
	p := base
	p.FootprintBytes = accessBytes
	if err := p.Validate(); err != nil {
		t.Errorf("a one-access footprint refused: %v", err)
	}
}

func TestMemoryBoundClassification(t *testing.T) {
	if MustGet("CP").MemoryBound() {
		t.Error("CP should be compute-bound")
	}
	if !MustGet("KMN").MemoryBound() {
		t.Error("KMN should be memory-bound")
	}
}

func TestSharedOpsEmitted(t *testing.T) {
	prof := MustGet("NQU") // SharedFraction 0.20, conflicts 1.5
	g := NewGenerator(prof, 3, 0, 0, 48)
	shared, latSum := 0, 0
	const n = 100000
	for i := 0; i < n; i++ {
		in := g.Next()
		if in.Kind == Shared {
			shared++
			latSum += in.Latency
			if in.Latency < 1 {
				t.Fatal("shared op latency < 1")
			}
		}
	}
	frac := float64(shared) / n
	// Shared draws happen on the non-memory path: expected ~(1-mem)*sf.
	want := (1 - prof.MemFraction) * prof.SharedFraction
	if math.Abs(frac-want) > 0.01 {
		t.Errorf("shared fraction = %v, want ~%v", frac, want)
	}
	// Mean latency = 1 + BankConflictMean.
	mean := float64(latSum) / float64(shared)
	if math.Abs(mean-(1+prof.BankConflictMean)) > 0.15 {
		t.Errorf("shared mean latency = %v, want ~%v", mean, 1+prof.BankConflictMean)
	}
}

func TestNoSharedWhenDisabled(t *testing.T) {
	prof := MustGet("BFS") // SharedFraction 0
	g := NewGenerator(prof, 3, 0, 0, 48)
	for i := 0; i < 20000; i++ {
		if g.Next().Kind == Shared {
			t.Fatal("shared op from a profile without shared memory")
		}
	}
}

// TestNewGeneratorsMatchesNewGenerator: a slab of several SMs, each with its
// own profile, seed and index, is the same generators NewGenerator builds one
// at a time.
func TestNewGeneratorsMatchesNewGenerator(t *testing.T) {
	kmn, ray := MustGet("KMN"), MustGet("RAY")
	sms := []SMWarps{{Prof: &kmn, Seed: 7, SM: 3}, {Prof: &ray, Seed: 9, SM: 0}, {Prof: &kmn, Seed: 7, SM: 55}}
	slab := NewGenerators(sms, 48)
	for k := range slab {
		sm, w := sms[k/48], k%48
		one := NewGenerator(*sm.Prof, sm.Seed, sm.SM, w, 48)
		for i := 0; i < 200; i++ {
			if a, b := slab[k].Next(), one.Next(); a != b {
				t.Fatalf("SM %d warp %d instruction %d: slab %+v, single %+v", sm.SM, w, i, a, b)
			}
		}
	}
}

// floatGen is the generator as it drew before integer thresholds: every
// Bernoulli draw a Float64() < p, the sequential cursor wrapped by a
// modulo. TestGeneratorMatchesFloatDraws holds Next to it.
type floatGen struct {
	prof   *Profile
	rng    *rng.Stream
	cursor uint64
}

func (g *floatGen) next() Instr {
	p := g.prof
	if !(g.rng.Float64() < p.MemFraction) {
		if p.SharedFraction > 0 && g.rng.Float64() < p.SharedFraction {
			lat := 1
			if p.BankConflictMean > 0 {
				n := 1
				for !(g.rng.Float64() < 1/(1+p.BankConflictMean)) && n < 32 {
					n++
				}
				lat += n - 1
			}
			return Instr{Kind: Shared, Latency: lat}
		}
		lat := 1
		if p.LongOpFraction > 0 && g.rng.Float64() < p.LongOpFraction {
			lat = p.LongOpLatency
		}
		return Instr{Kind: Compute, Latency: lat}
	}
	if g.rng.Float64() < p.Locality {
		g.cursor = (g.cursor + accessBytes) % p.FootprintBytes
	} else {
		g.cursor = g.rng.Uint64n(p.FootprintBytes) &^ (accessBytes - 1)
	}
	kind := Load
	if g.rng.Float64() < p.StoreFraction {
		kind = Store
	}
	return Instr{Kind: kind, Addr: g.cursor}
}

// TestGeneratorMatchesFloatDraws: the integer-threshold Next draws the
// same instruction streams as the float draws it replaced, for every
// benchmark and the two mostly-asleep test profiles, 48 warps each. One
// slab of generators is reset from profile to profile, as an SM's is, so
// the thresholds are re-read on ResetGenerators.
func TestGeneratorMatchesFloatDraws(t *testing.T) {
	profs := append(All(),
		Profile{Name: "TRICKLE", Suite: "synthetic", MemFraction: 0.03, Locality: 0.6,
			FootprintBytes: 1 << 20, RunAhead: 2, LongOpFraction: 1, LongOpLatency: 900},
		Profile{Name: "IDLE", Suite: "synthetic", Locality: 0.5, FootprintBytes: 256 << 10,
			RunAhead: 4, LongOpFraction: 1, LongOpLatency: 600})
	const seed, sm, warps, n = 5, 3, 48, 10_000
	prof := profs[len(profs)-1]
	gs := NewGenerators([]SMWarps{{Prof: &prof, Seed: seed, SM: sm}}, warps)
	for _, p := range profs {
		prof = p
		ResetGenerators(gs, seed, sm)
		for w := range gs {
			ref := floatGen{prof: &p, rng: rng.New(warpSeed(seed, sm, w)), cursor: startCursor(&p, sm, w, warps)}
			for i := 0; i < n; i++ {
				if got, want := gs[w].Next(), ref.next(); got != want {
					t.Fatalf("%s warp %d instruction %d: Next %+v, float draws %+v", p.Name, w, i, got, want)
				}
			}
		}
	}
}
