// Fast-forward equivalence suite: RunContext always jumps over globally idle
// cycles, and that must be indistinguishable — bit-identical, not
// statistically close — from stepping every cycle. The stepped loop is the
// oracle; it exists only behind UseSteppedLoop (export_test.go).
package gpu_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

// equivCfg is a reduced-scale configuration: long enough that traffic
// saturates the MC rows, short enough that the suite stays in seconds.
func equivCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 400
	cfg.MeasureCycles = 1600
	return cfg
}

// idleProfile is a pure-compute workload with long deterministic sleeps:
// every warp issues one 600-cycle op per wakeup and the system generates no
// memory traffic at all, so the fabric stays empty and most cycles are
// globally idle — the case fast-forward exists for.
func idleProfile() workload.Profile {
	return workload.Profile{
		Name: "IDLE", Suite: "synthetic",
		Locality: 0.5, FootprintBytes: 256 << 10,
		RunAhead: 4, LongOpFraction: 1, LongOpLatency: 600,
	}
}

// trickleProfile sleeps like idleProfile but issues occasional loads, so
// idle spans interleave with real NoC/MC/DRAM activity — the case that
// exercises the service-token and stall compensation at span edges.
func trickleProfile() workload.Profile {
	return workload.Profile{
		Name: "TRICKLE", Suite: "synthetic",
		MemFraction: 0.03, Locality: 0.6, FootprintBytes: 1 << 20,
		RunAhead: 2, LongOpFraction: 1, LongOpLatency: 900,
	}
}

// run simulates prof under cfg with telemetry every 400 cycles, the
// sanitizer every 256 and the flight recorder on, fast-forwarding (the
// shipped loop) or stepped (the oracle).
func run(t *testing.T, cfg config.Config, prof workload.Profile, stepped bool) gpu.Result {
	t.Helper()
	if cfg.NoC.Workers > 1 {
		forcePool(t)
	}
	sim, err := gpu.NewInstrumented(cfg, prof, gpu.Instrumentation{
		SanitizeEvery: 256, TelemetryEpoch: 400, FlightRecorder: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if stepped {
		sim.UseSteppedLoop()
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stepped && res.FastForwarded != 0 {
		t.Fatalf("stepped oracle skipped %d cycles", res.FastForwarded)
	}
	return res
}

// same requires two runs observably identical: IPC, run shape, core and
// network statistics (the floating-point latency accumulators pin ejection
// order) and the telemetry JSONL bytes.
func same(t *testing.T, got, want gpu.Result) {
	t.Helper()
	if got.IPC != want.IPC || got.Cycles != want.Cycles || got.Deadlocked != want.Deadlocked {
		t.Errorf("run shape diverged: IPC %v/%v, cycles %d/%d, deadlocked %v/%v",
			got.IPC, want.IPC, got.Cycles, want.Cycles, got.Deadlocked, want.Deadlocked)
	}
	if got.GPU != want.GPU {
		t.Errorf("GPU stats diverged:\n got %+v\nwant %+v", got.GPU, want.GPU)
	}
	if !reflect.DeepEqual(got.Net, want.Net) {
		t.Errorf("network stats diverged")
	}
	var g, w bytes.Buffer
	if err := got.Tel.WriteJSONL(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.Tel.WriteJSONL(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Errorf("telemetry export diverged (%d vs %d bytes)", g.Len(), w.Len())
	}
}

// TestFastForwardEquivalence covers the Figure 9 design space, three seeds
// each, on a workload that saturates the fabric: fast-forward must find
// nothing to skip wrongly and the run loop's bookkeeping must match the
// stepped loop's.
func TestFastForwardEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed design-space sweep")
	}
	kmn := workload.MustGet("KMN")
	for _, s := range experiments.Fig9Schemes() {
		for _, seed := range []uint64{1, 7, 1234577} {
			t.Run(fmt.Sprintf("%s/seed=%d", s.Label, seed), func(t *testing.T) {
				t.Parallel()
				cfg := s.Apply(equivCfg())
				cfg.Seed = seed
				same(t, run(t, cfg, kmn, false), run(t, cfg, kmn, true))
			})
		}
	}
}

// TestFastForwardEquivalenceIdle pins fast-forward where it actually
// engages — a pure-compute profile (fabric always empty; the skip covers
// most of the run) and a trickle profile whose idle spans border real
// memory traffic (the span-edge compensation) — on the single network and
// on the dual physical subnets, at workers ∈ {1, 2, 4}, each against the
// stepped serial run.
func TestFastForwardEquivalenceIdle(t *testing.T) {
	dual := equivCfg()
	dual.NoC.PhysicalSubnets = true
	dual.NoC.VCsPerPort = 4 // 2 per subnet
	for _, net := range []struct {
		name string
		cfg  config.Config
	}{{"single", equivCfg()}, {"dual", dual}} {
		for _, prof := range []workload.Profile{idleProfile(), trickleProfile()} {
			t.Run(net.name+"/"+prof.Name, func(t *testing.T) {
				t.Parallel()
				cfg := net.cfg
				cfg.NoC.Workers = 1
				oracle := run(t, cfg, prof, true)
				for _, w := range []int{1, 2, 4} {
					cfg.NoC.Workers = w
					ff := run(t, cfg, prof, false)
					if ff.FastForwarded == 0 {
						t.Fatalf("workers=%d never fast-forwarded", w)
					}
					same(t, ff, oracle)
				}
			})
		}
	}
}

// TestFastForwardKeepsSanitizerCadence: a jump must stop at every
// SanitizeEvery boundary it would otherwise cross, so a fast-forwarded run
// performs exactly the invariant checks a stepped run performs, at the
// same cycles.
func TestFastForwardKeepsSanitizerCadence(t *testing.T) {
	checks := func(res gpu.Result) (cycles []int64) {
		for _, e := range res.Flight.Events() {
			if e.Kind == fleetobs.KindInvariantOK {
				cycles = append(cycles, e.Cycle)
			}
		}
		return cycles
	}
	cfg := equivCfg()
	for _, prof := range []workload.Profile{idleProfile(), trickleProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			ff, stepped := run(t, cfg, prof, false), run(t, cfg, prof, true)
			if ff.FastForwarded == 0 {
				t.Fatal("never fast-forwarded")
			}
			want := (cfg.WarmupCycles + cfg.MeasureCycles) / 256
			if got := checks(stepped); len(got) != want {
				t.Fatalf("stepped run made %d invariant checks, want %d", len(got), want)
			}
			if got, want := checks(ff), checks(stepped); !reflect.DeepEqual(got, want) {
				t.Errorf("invariant checks at cycles %v fast-forwarded, %v stepped", got, want)
			}
		})
	}
}
