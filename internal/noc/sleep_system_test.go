package noc_test

import (
	"context"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/workload"
)

// TestSaturatedNetworkSleeps keeps the back-pressure gates from rotting
// silently (the network half of smcore's TestSaturatedSystemSleeps): on the
// Table 2 system running KMN almost every router holds flits that cannot
// move, almost every injection queue is full and almost every outbox is
// refused, so most router visits must take the idle early-out, injectNode
// must run for a handful of the ~64 non-empty queues a cycle, and the
// endpoints must have all but stopped calling Inject in vain.
func TestSaturatedNetworkSleeps(t *testing.T) {
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
	g := noc.Gates(sim.Net)
	cycles := float64(cfg.WarmupCycles + cfg.MeasureCycles)
	idle := float64(g.IdleSkips) / float64(g.IdleSkips+g.RouterVisits)
	inject := float64(g.InjectVisits) / cycles
	refused := float64(g.RefusedInjects) / cycles
	t.Logf("%.1f%% of %d router visits took the idle early-out; %.2f injectNode visits per cycle; %.2f refused Injects per cycle",
		100*idle, g.IdleSkips+g.RouterVisits, inject, refused)
	if idle < 0.65 {
		t.Errorf("%.1f%% of router visits took the idle early-out, want at least 65%%", 100*idle)
	}
	if inject > 6 {
		t.Errorf("%.2f injectNode visits per cycle, want at most 6", inject)
	}
	if refused > 3 {
		t.Errorf("%.2f refused Injects per cycle, want at most 3", refused)
	}
}
