package core_test

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/synthetic"
	"gpgpunoc/internal/workload"
)

// freshVerdict is the uncached reference: the safety hook as it was before
// the table, reading the configuration itself rather than a key. A
// construction failure is a verdict too.
func freshVerdict(cfg config.Config) error {
	m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
	pl, err := placement.New(cfg.Placement, m, cfg.Mem.NumMCs)
	if err != nil {
		return err
	}
	alg, err := routing.New(cfg.NoC.Routing)
	if err != nil {
		return err
	}
	u := core.Analyze(m, pl, alg)
	asg, err := core.BuildAssigner(u, cfg.NoC)
	if err != nil {
		return err
	}
	if err := u.CheckPolicy(asg); err != nil {
		return err
	}
	return u.CDG(asg, cfg.NoC.VCsPerPort).ProveDeadlockFree()
}

// tableVerdict is the same question asked of the table.
func tableVerdict(cfg config.Config) error {
	s, err := core.StructureFor(cfg)
	if err != nil {
		return err
	}
	return s.Prove()
}

func sameVerdict(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// perturbations returns the values to try in place of leaf v: every other
// legal name for the three enumerations, a neighbour or two for numbers, the
// flip of a bool.
func perturbations(t *testing.T, v reflect.Value) []reflect.Value {
	var out []reflect.Value
	add := func(x any) {
		if nv := reflect.ValueOf(x).Convert(v.Type()); !reflect.DeepEqual(nv.Interface(), v.Interface()) {
			out = append(out, nv)
		}
	}
	switch v.Interface().(type) {
	case config.Placement:
		for _, p := range append(config.Placements(), config.PlacementTop) {
			add(p)
		}
	case config.Routing:
		for _, r := range config.Routings() {
			add(r)
		}
	case config.VCPolicy:
		for _, p := range []config.VCPolicy{config.VCSplit, config.VCAsymmetric, config.VCMonopolized, config.VCPartialMonopolized, config.VCShared} {
			add(p)
		}
	default:
		switch v.Kind() {
		case reflect.Int:
			add(int(v.Int()) + 1)
			add(int(v.Int()) + 2)
			if v.Int() > 2 {
				add(int(v.Int()) - 1)
			}
		case reflect.Uint64:
			add(v.Uint() + 1)
		case reflect.Bool:
			add(!v.Bool())
		default:
			t.Fatalf("config leaf of kind %s: teach perturbations about it", v.Kind())
		}
	}
	return out
}

// leaves calls visit on every leaf field of the struct at v, depth first.
func leaves(v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	for i := 0; i < v.NumField(); i++ {
		name := path + v.Type().Field(i).Name
		if f := v.Field(i); f.Kind() == reflect.Struct {
			leaves(f, name+".", visit)
		} else {
			visit(name, f)
		}
	}
}

// TestStructureKeyIsComplete perturbs every leaf field of config.Config, one
// at a time, on bases that between them are safe, unsafe by overlap and
// asymmetric. The table's verdict on the perturbed configuration must be
// what an uncached proof of that configuration says — so a field the proof
// reads but the key omits, today or when one is added to Config, shows up
// here as a stale hit. Every key field must also be seen to change the key.
func TestStructureKeyIsComplete(t *testing.T) {
	core.ResetStructures()
	asym := config.Default()
	asym.NoC.VCPolicy, asym.NoC.VCsPerPort = config.VCAsymmetric, 3
	bases := map[string]config.Config{
		"default":          config.Default(),
		"diamond-mono":     variant(config.PlacementDiamond, config.RoutingXY, config.VCMonopolized),
		"xyyx-partial":     variant(config.PlacementBottom, config.RoutingXYYX, config.VCPartialMonopolized),
		"bottom-asym-3vcs": asym,
	}
	movedKey := map[string]bool{}
	for name, base := range bases {
		if got, want := tableVerdict(base), freshVerdict(base); !sameVerdict(got, want) {
			t.Fatalf("%s: table says %v, fresh proof says %v", name, got, want)
		}
		cfg := base
		leaves(reflect.ValueOf(&cfg).Elem(), "", func(path string, leaf reflect.Value) {
			for _, nv := range perturbations(t, leaf) {
				leaf.Set(nv)
				moved := core.KeyOf(cfg) != core.KeyOf(base)
				if moved {
					movedKey[path] = true
				}
				if got, want := tableVerdict(cfg), freshVerdict(cfg); !sameVerdict(got, want) {
					t.Errorf("%s with %s = %v (key moved: %v): table says %v, fresh proof says %v",
						name, path, nv, moved, got, want)
				}
			}
			cfg = base
		})
	}
	keyFields := []string{"NoC.Width", "NoC.Height", "Placement", "Mem.NumMCs", "NoC.Routing",
		"NoC.VCPolicy", "NoC.VCsPerPort", "NoC.AsymmetricRequestVCs"}
	if n := reflect.TypeOf(core.StructureKey{}).NumField(); n != len(keyFields) {
		t.Fatalf("StructureKey has %d fields, this test knows %d", n, len(keyFields))
	}
	for _, f := range keyFields {
		if !movedKey[f] {
			t.Errorf("no perturbation of %s changed the structural key", f)
		}
		delete(movedKey, f)
	}
	for f := range movedKey {
		t.Errorf("perturbing %s changed the structural key, but it is not a key field", f)
	}
}

// fourStructures are distinct design points of the Table 2 system.
func fourStructures() []config.Config {
	return []config.Config{
		variant(config.PlacementBottom, config.RoutingXY, config.VCSplit),
		variant(config.PlacementBottom, config.RoutingYX, config.VCMonopolized),
		variant(config.PlacementBottom, config.RoutingXYYX, config.VCPartialMonopolized),
		variant(config.PlacementDiamond, config.RoutingXY, config.VCSplit),
	}
}

// TestStructureProvedOncePerKey: many goroutines validating and building
// simulators over four design points, differing in seed and benchmark, run
// four proofs between them — not one per call, and not none.
func TestStructureProvedOncePerKey(t *testing.T) {
	core.ResetStructures()
	before := core.ProofsRun()
	cfgs := fourStructures()
	benches := []string{"KMN", "BFS", "RAY"}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfg := cfgs[g%len(cfgs)]
			cfg.Seed = uint64(g)
			if err := cfg.Validate(); err != nil {
				t.Errorf("goroutine %d: Validate: %v", g, err)
				return
			}
			if _, err := gpu.New(cfg, workload.MustGet(benches[g%len(benches)])); err != nil {
				t.Errorf("goroutine %d: gpu.New: %v", g, err)
			}
		}()
	}
	wg.Wait()
	if got := core.ProofsRun() - before; got != int64(len(cfgs)) {
		t.Errorf("%d proofs for %d structures", got, len(cfgs))
	}
	// The same pointer for every configuration of a key.
	a, _ := core.StructureFor(cfgs[0])
	other := cfgs[0]
	other.Seed, other.NoC.VCDepth, other.NoC.Workers = 99, 8, 4
	if b, _ := core.StructureFor(other); a == nil || a != b {
		t.Errorf("configurations of one key got structures %p and %p", a, b)
	}
}

// smallStructure is the i-th of a family of cheap, distinct, safe design
// points on small meshes.
func smallStructure(i int) config.Config {
	cfg := config.Default()
	cfg.NoC.Width, cfg.NoC.Height = 4+i%8, 4+i/8
	cfg.Mem.NumMCs, cfg.Core.NumSMs = 4, 4
	return cfg
}

// TestStructureTableEvictsOldest: the table holds StructureCap entries; one
// more evicts the first inserted and nothing else, and proving the evicted
// one again gives the verdict it gave before.
func TestStructureTableEvictsOldest(t *testing.T) {
	core.ResetStructures()
	oldest := variant(config.PlacementBottom, config.RoutingXYYX, config.VCMonopolized) // unsafe
	first := oldest.Validate()
	if first == nil {
		t.Fatal("unsafe structure validated")
	}
	for i := 1; i < core.StructureCap; i++ {
		if err := smallStructure(i).Validate(); err != nil {
			t.Fatalf("structure %d: %v", i, err)
		}
	}
	full := core.ProofsRun()
	if err := oldest.Validate(); !sameVerdict(err, first) || core.ProofsRun() != full {
		t.Fatalf("at the cap the oldest was not a hit: %v, %d proofs more", err, core.ProofsRun()-full)
	}
	if err := smallStructure(core.StructureCap).Validate(); err != nil {
		t.Fatal(err)
	}
	over := core.ProofsRun()
	for i := 2; i <= core.StructureCap; i++ {
		if err := smallStructure(i).Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if got := core.ProofsRun() - over; got != 0 {
		t.Errorf("%d of the %d newest structures were proved again", got, core.StructureCap-1)
	}
	if err := oldest.Validate(); !sameVerdict(err, first) {
		t.Errorf("evicted structure re-proved to %v, was %v", err, first)
	}
	if got := core.ProofsRun() - over; got != 1 {
		t.Errorf("%d proofs after re-validating the evicted structure, want 1", got)
	}
}

// TestStructureUnsafeVerdictMemoized: a rejected design point is rejected
// with the same text on every call and by every route to the table, and
// AllowUnsafe still builds it.
func TestStructureUnsafeVerdictMemoized(t *testing.T) {
	core.ResetStructures()
	cfg := variant(config.PlacementDiamond, config.RoutingXY, config.VCMonopolized)
	want := freshVerdict(cfg)
	if want == nil {
		t.Fatal("diamond + monopolized proved safe")
	}
	before := core.ProofsRun()
	for i := 0; i < 3; i++ {
		cfg.Seed = uint64(i)
		if err := cfg.Validate(); !sameVerdict(err, want) {
			t.Errorf("Validate call %d: %v, want %v", i, err, want)
		}
		if _, err := gpu.New(cfg, workload.MustGet("CP")); !sameVerdict(err, want) {
			t.Errorf("gpu.New call %d: %v, want %v", i, err, want)
		}
	}
	u, err := core.ValidateScheme(core.Scheme{Label: "unsafe", Placement: config.PlacementDiamond,
		Routing: config.RoutingXY, VCPolicy: config.VCMonopolized}, config.Default())
	if !sameVerdict(err, want) {
		t.Errorf("ValidateScheme: %v, want %v", err, want)
	}
	if u == nil || len(u.MixedLinks()) == 0 {
		t.Error("ValidateScheme did not return the unsafe scheme's link usage")
	}
	if got := core.ProofsRun() - before; got != 1 {
		t.Errorf("%d proofs of one unsafe structure", got)
	}

	cfg.AllowUnsafe = true
	cfg.WarmupCycles, cfg.MeasureCycles = 200, 800
	sim, err := gpu.New(cfg, workload.MustGet("CP"))
	if err != nil {
		t.Fatalf("AllowUnsafe rejected: %v", err)
	}
	if _, err := sim.RunContext(context.Background()); err != nil {
		t.Errorf("unsafe structure under AllowUnsafe: %v", err)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Validate with AllowUnsafe: %v", err)
	}
}

// TestStructureSharedBySyntheticHarness: the synthetic harness builds through
// the same table as gpu.New and config.Validate, so a harness and a simulator
// of one design point share one structure and one proof between them.
func TestStructureSharedBySyntheticHarness(t *testing.T) {
	core.ResetStructures()
	before := core.ProofsRun()
	cfg := variant(config.PlacementBottom, config.RoutingYX, config.VCMonopolized)
	p := synthetic.DefaultParams()
	p.Config = cfg
	h, err := synthetic.New(p)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.StructureFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if h.Structure != st || sim.Place != st.Placement {
		t.Error("the harness and gpu.New of one design point hold different structures")
	}
	if got := core.ProofsRun() - before; got != 1 {
		t.Errorf("%d proofs of one structure built by the harness and gpu.New", got)
	}
}

// scaleUp is the 16x16 scale-up: 240 SMs and 16 MCs on the bottom row.
func scaleUp(r config.Routing, p config.VCPolicy) config.Config {
	cfg := variant(config.PlacementBottom, r, p)
	cfg.NoC.Width, cfg.NoC.Height = 16, 16
	cfg.Core.NumSMs, cfg.Mem.NumMCs = 240, 16
	return cfg
}

// coldProof builds and proves cfg's structure from an empty table.
func coldProof(tb testing.TB, cfg config.Config) {
	core.ResetStructures()
	s, err := core.StructureFor(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Prove(); err != nil {
		tb.Fatal(err)
	}
}

// TestStructureColdProofAllocs pins a cold 16x16 structure, analysis and
// both proofs, at about 140 allocations (77,000 when every route was a
// slice of its own and the graph a dense matrix): room for per-MC and
// per-graph arrays, not for anything per route (7,680 of them).
func TestStructureColdProofAllocs(t *testing.T) {
	cfg := scaleUp(config.RoutingXY, config.VCSplit)
	if a := testing.AllocsPerRun(3, func() { coldProof(t, cfg) }); a > 200 {
		t.Errorf("a cold 16x16 StructureFor+Prove allocates %.0f times, want <= 200", a)
	}
}

// BenchmarkStructureColdProof times StructureFor+Prove on an empty table:
// the Table 2 system and the 16x16 scale-up.
func BenchmarkStructureColdProof(b *testing.B) {
	for _, bc := range []struct {
		name string
		cfg  config.Config
	}{{"mesh8", config.Default()}, {"mesh16", scaleUp(config.RoutingXY, config.VCSplit)}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				coldProof(b, bc.cfg)
			}
		})
	}
}
