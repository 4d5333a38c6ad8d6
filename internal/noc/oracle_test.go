// Full-system oracle suite: the run-mask kernel must be indistinguishable
// from stepReference, the naive full-scan stepper — not statistically close,
// bit-identical. Anything less means a run mask lost a bit or an arbitration
// got reordered, and every derived result (figure tables, latency
// distributions, telemetry) silently drifts.
//
// The oracle is selectable only through this package's export_test.go, so
// these comparisons live here, in the external test package that can drive
// a whole gpu.Simulator. Each comparison runs at one lane and at four, so the
// lane-by-lane kernel is held to the phase-by-phase oracle; worker-count
// equivalence of the shipped kernel alone lives in the root package's
// equivalence_test.go.
package noc_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/workload"
)

// equivCfg is a reduced-scale configuration: long enough that traffic
// saturates the MC rows and backpressure (the schedule's hard case)
// appears, short enough that the whole suite stays in seconds.
func equivCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 400
	cfg.MeasureCycles = 1600
	return cfg
}

// run simulates prof under cfg with telemetry every 400 cycles and the
// sanitizer every 256 — so CheckInvariants, the run-mask recount included,
// is exercised on both paths — on the shipped kernel or on the oracle.
func run(t *testing.T, cfg config.Config, prof workload.Profile, reference bool) gpu.Result {
	t.Helper()
	sim, err := gpu.NewInstrumented(cfg, prof, gpu.Instrumentation{SanitizeEvery: 256, TelemetryEpoch: 400})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if reference {
		noc.UseReferenceStepper(sim.Net)
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkOracle runs prof under both steppers and requires bit-identical
// observable state: IPC, run shape, core and network statistics (the
// floating-point Welford latency accumulators pin the ejection order) and
// the telemetry JSONL bytes.
func checkOracle(t *testing.T, cfg config.Config, prof workload.Profile) {
	t.Helper()
	opt, ref := run(t, cfg, prof, false), run(t, cfg, prof, true)
	if opt.IPC != ref.IPC || opt.Cycles != ref.Cycles || opt.Deadlocked != ref.Deadlocked {
		t.Errorf("run shape diverged: IPC %v/%v, cycles %d/%d, deadlocked %v/%v",
			opt.IPC, ref.IPC, opt.Cycles, ref.Cycles, opt.Deadlocked, ref.Deadlocked)
	}
	if opt.GPU != ref.GPU {
		t.Errorf("GPU stats diverged:\n run-mask %+v\nreference %+v", opt.GPU, ref.GPU)
	}
	if !reflect.DeepEqual(opt.Net, ref.Net) {
		t.Errorf("network stats diverged (latency accumulators are order-sensitive: check ejection ordering)")
	}
	var ob, rb bytes.Buffer
	if err := opt.Tel.WriteJSONL(&ob); err != nil {
		t.Fatal(err)
	}
	if err := ref.Tel.WriteJSONL(&rb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ob.Bytes(), rb.Bytes()) {
		t.Errorf("telemetry export diverged (%d vs %d bytes)", ob.Len(), rb.Len())
	}
}

// checkOracleLanes runs checkOracle as one row per lane count: the serial
// kernel, and four lanes — on the pool when there is a second P, lane by
// lane on the stepping goroutine otherwise. The oracle steps phase by phase
// across the whole mesh whatever the lane count.
func checkOracleLanes(t *testing.T, cfg config.Config, prof workload.Profile) {
	t.Helper()
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			c := cfg
			c.NoC.Workers = w
			checkOracle(t, c, prof)
		})
	}
}

// TestReferenceOracleFig9Schemes covers the full Figure 9 design space
// (every placement, routing, and VC policy family), three seeds each.
func TestReferenceOracleFig9Schemes(t *testing.T) {
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
				checkOracleLanes(t, cfg, kmn)
			})
		}
	}
}

// TestReferenceOracleDual covers the two-physical-subnets design, with
// full-width and half-width (linkPeriod=2) channels.
func TestReferenceOracleDual(t *testing.T) {
	for _, half := range []bool{false, true} {
		t.Run(fmt.Sprintf("halfwidth=%v", half), func(t *testing.T) {
			t.Parallel()
			cfg := equivCfg()
			cfg.NoC.PhysicalSubnets = true
			cfg.NoC.SubnetHalfWidth = half
			cfg.NoC.VCsPerPort = 4 // 2 per subnet
			checkOracleLanes(t, cfg, workload.MustGet("RED"))
		})
	}
}

// TestReferenceOracleAsymmetric covers the Figure 10 asymmetric VC
// partition (1 request : 3 reply), which stresses uneven per-class ranges
// in the precomputed injection and link VC tables.
func TestReferenceOracleAsymmetric(t *testing.T) {
	cfg := equivCfg()
	cfg.NoC.VCsPerPort = 4
	cfg.NoC.Routing = config.RoutingXYYX
	cfg.NoC.VCPolicy = config.VCAsymmetric
	checkOracleLanes(t, cfg, workload.MustGet("BFS"))
}

// TestReferenceOracleIdle covers the mostly-empty fabric: a pure-compute
// profile that never touches it, and a trickle profile whose idle spans
// border real memory traffic, so the kernel is repeatedly entered from and
// left in the empty state.
func TestReferenceOracleIdle(t *testing.T) {
	for _, prof := range []workload.Profile{
		{Name: "IDLE", Suite: "synthetic", Locality: 0.5, FootprintBytes: 256 << 10,
			RunAhead: 4, LongOpFraction: 1, LongOpLatency: 600},
		{Name: "TRICKLE", Suite: "synthetic", MemFraction: 0.03, Locality: 0.6, FootprintBytes: 1 << 20,
			RunAhead: 2, LongOpFraction: 1, LongOpLatency: 900},
	} {
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			checkOracleLanes(t, equivCfg(), prof)
		})
	}
}
