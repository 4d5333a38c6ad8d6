package smcore_test

import (
	"context"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

// TestSaturatedSystemSleeps keeps the optimisation from rotting silently:
// on the Table 2 system running KMN the network is saturated, nearly every
// SM-cycle is a stall, and at least 80% of SM ticks must take the sleeping
// early-out.
func TestSaturatedSystemSleeps(t *testing.T) {
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles = 1000, 5000
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if _, err := sim.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	var slept int64
	for _, sm := range sim.SMs {
		slept += sm.SleptTicks()
	}
	ticks := int64(cfg.WarmupCycles+cfg.MeasureCycles) * int64(len(sim.SMs))
	if share := float64(slept) / float64(ticks); share < 0.8 {
		t.Errorf("%.1f%% of %d SM ticks slept, want at least 80%%", 100*share, ticks)
	} else {
		t.Logf("%.1f%% of %d SM ticks slept", 100*share, ticks)
	}
}
