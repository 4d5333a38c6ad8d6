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
		defer sim.Close()
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

// TestSharedStructureNewAllocs pins construction on a structure hit. What is
// left is per-SM and per-router state; 1,200 is room for that (about 1,000
// today), not for anything per warp (2,688 of them) or per route (3,584).
func TestSharedStructureNewAllocs(t *testing.T) {
	cfg, kmn := config.Default(), workload.MustGet("KMN")
	build := func() {
		sim, err := gpu.New(cfg, kmn)
		if err != nil {
			t.Fatal(err)
		}
		sim.Close()
	}
	build() // first sight of the structure: analysis and proof
	if a := testing.AllocsPerRun(5, build); a > 1200 {
		t.Errorf("gpu.New allocates %.0f times on a structure hit, want <= 1200", a)
	}
}
