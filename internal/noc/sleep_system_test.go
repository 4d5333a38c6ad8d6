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

// TestFlitsLandInPlace keeps the in-place paths from rotting silently: on
// the Table 2 system running KMN, a link traversal into a router the walk has
// already passed goes straight into that router's buffer, and a credit owed
// to one lands at once, so at least half the traversals and 30% of the
// credits must take the in-place path. A half-width Dual holds every flit in
// its link register for a second cycle, so none may.
func TestFlitsLandInPlace(t *testing.T) {
	run := func(cfg config.Config) noc.GateCounts {
		t.Helper()
		sim, err := gpu.New(cfg, workload.MustGet("KMN"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.RunContext(context.Background()); err != nil {
			t.Fatal(err)
		}
		return noc.Gates(sim.Net)
	}
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles = 1000, 5000
	g := run(cfg)
	moves := float64(g.MovesInPlace) / float64(g.MovesInPlace+g.MovesViaReg)
	credits := float64(g.CreditsInPlace) / float64(g.CreditsInPlace+g.CreditsDeferred)
	t.Logf("%.1f%% of %d link traversals and %.1f%% of %d credits landed in place",
		100*moves, g.MovesInPlace+g.MovesViaReg, 100*credits, g.CreditsInPlace+g.CreditsDeferred)
	if moves < 0.50 {
		t.Errorf("%.1f%% of link traversals landed in place, want at least 50%%", 100*moves)
	}
	if credits < 0.30 {
		t.Errorf("%.1f%% of credits landed in place, want at least 30%%", 100*credits)
	}

	cfg.NoC.PhysicalSubnets, cfg.NoC.SubnetHalfWidth = true, true
	cfg.WarmupCycles, cfg.MeasureCycles = 200, 1000
	if g := run(cfg); g.MovesInPlace != 0 || g.MovesViaReg == 0 {
		t.Errorf("half-width Dual: %d traversals in place, %d through the register; want none in place", g.MovesInPlace, g.MovesViaReg)
	}
}
