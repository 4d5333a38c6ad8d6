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
// refused, so most routers walked must be idle, injectNode must run for a
// handful of the ~64 non-empty queues a cycle, the endpoints must have all
// but stopped calling Inject in vain, and the stage must be called for the
// 8 MCs and a handful of the 56 SMs a cycle: the rest are dormant.
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
	stage := float64(g.StageCalls) / cycles
	t.Logf("%.1f%% of %d routers walked were idle; %.2f injectNode visits per cycle; %.2f refused Injects per cycle; %.2f stage calls per cycle",
		100*idle, g.IdleSkips+g.RouterVisits, inject, refused, stage)
	if idle < 0.65 {
		t.Errorf("%.1f%% of routers walked were idle, want at least 65%%", 100*idle)
	}
	if stage > 16 {
		t.Errorf("%.2f stage calls per cycle, want at most 16", stage)
	}
	if inject > 6 {
		t.Errorf("%.2f injectNode visits per cycle, want at most 6", inject)
	}
	if refused > 3 {
		t.Errorf("%.2f refused Injects per cycle, want at most 3", refused)
	}
}
