package gpu_test

import (
	"context"
	"sync"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

// TestSharedStructureConcurrentRuns: two simulators of one design point
// share its core.Structure — placement, link usage, assigner. Stepped to
// completion on two goroutines at once they must each leave what a solo run
// leaves, and the race detector must see no write to what they share.
func TestSharedStructureConcurrentRuns(t *testing.T) {
	kmn := workload.MustGet("KMN")
	inst := gpu.Instrumentation{SanitizeEvery: sanitizeEvery, TelemetryEpoch: 400, FlightRecorder: 1 << 12}
	cfgs := []config.Config{equivCfg(), equivCfg()}
	cfgs[1].Seed = 7

	var solo []string
	sims := make([]*gpu.Simulator, len(cfgs))
	for i, cfg := range cfgs {
		solo = append(solo, digest(t, run(t, cfg, kmn)))
		sim, err := gpu.NewInstrumented(cfg, kmn, inst)
		if err != nil {
			t.Fatal(err)
		}
		sims[i] = sim
	}
	if sims[0].Place != sims[1].Place {
		t.Fatal("two simulators of one design point do not share a placement")
	}

	results := make([]gpu.Result, len(sims))
	errs := make([]error, len(sims))
	var wg sync.WaitGroup
	for i, sim := range sims {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = sim.RunContext(context.Background())
		}()
	}
	wg.Wait()
	for i := range sims {
		if errs[i] != nil {
			t.Fatalf("simulator %d: %v", i, errs[i])
		}
		if got := digest(t, results[i]); got != solo[i] {
			t.Errorf("simulator %d beside another of its structure: digest %s, solo %s", i, got, solo[i])
		}
	}
}

// scaleUp is the 16x16 scale-up: 240 SMs and 16 MCs.
func scaleUp() config.Config {
	cfg := config.Default()
	cfg.NoC.Width, cfg.NoC.Height = 16, 16
	cfg.Core.NumSMs, cfg.Mem.NumMCs = 240, 16
	return cfg
}

// TestSharedStructureNewAllocs pins construction on a structure hit. What is
// left is per-SM and per-router state: about 1,000 allocations on the Table
// 2 system and 4,000 on the 16x16 scale-up, with room for that, not for
// anything per warp (2,688 and 11,520 of them) or per route (3,584 and
// 7,680).
func TestSharedStructureNewAllocs(t *testing.T) {
	kmn := workload.MustGet("KMN")
	for _, tc := range []struct {
		name  string
		cfg   config.Config
		limit float64
	}{{"mesh8", config.Default(), 1200}, {"mesh16", scaleUp(), 4500}} {
		build := func() {
			if _, err := gpu.New(tc.cfg, kmn); err != nil {
				t.Fatal(err)
			}
		}
		build() // first sight of the structure: analysis and proof
		if a := testing.AllocsPerRun(5, build); a > tc.limit {
			t.Errorf("%s: gpu.New allocates %.0f times on a structure hit, want <= %.0f", tc.name, a, tc.limit)
		}
	}
}

// BenchmarkNewStructureHit times gpu.New on a structure hit: the Table 2
// system and the 16x16 scale-up.
func BenchmarkNewStructureHit(b *testing.B) {
	kmn := workload.MustGet("KMN")
	for _, bc := range []struct {
		name string
		cfg  config.Config
	}{{"mesh8", config.Default()}, {"mesh16", scaleUp()}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := gpu.New(bc.cfg, kmn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
