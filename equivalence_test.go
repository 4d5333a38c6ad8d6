// Kernel-equivalence suite over the public surface: a run must be
// reproduced bit for bit — not statistically close — by a second run of the
// same configuration, also when that configuration still carries the
// retired NoC.Workers field (once the lane-parallel kernel's domain count,
// now read by nothing that simulates), and the run loop must be
// indistinguishable from driving Simulator.Step by hand, one call per
// cycle. Anything less means hidden state or nondeterminism leaked into a
// result, or the loop's bookkeeping (statistics off during warm-up, the
// closing telemetry flush) touched something observable, and every derived
// result (figure tables, latency distributions, telemetry) silently drifts.
//
// Coverage: the eight Figure 9 schemes (every placement, routing, and VC
// policy family) × three seeds, plus the dual physical subnets with full-
// and half-width channels, each compared on IPC, cycle count, the complete
// stats.Net (including floating-point Welford latency accumulators, which
// pin the ejection order), and the full telemetry JSONL export. Runs are
// sanitized, so CheckInvariants — including the run-mask recount — is
// exercised throughout. (Test names are kept from when the suite held the
// lane-parallel kernel to the serial one.)
//
// The router itself is held to an independent specification model in
// internal/noc (spec_test.go), where the network's own surface is visible.
package gpgpunoc_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/gpu"
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

// instrumented is what every run in this suite carries: telemetry every 400
// cycles and the invariant sanitizer every 256.
var instrumented = gpu.Instrumentation{SanitizeEvery: 256, TelemetryEpoch: 400}

// runOne runs the named benchmark instrumented.
func runOne(t *testing.T, cfg config.Config, bench string) gpu.Result {
	t.Helper()
	return runProfile(t, cfg, workload.MustGet(bench))
}

// retiredWorkers returns cfg carrying the retired NoC.Workers value 4.
func retiredWorkers(cfg config.Config) config.Config {
	cfg.NoC.Workers = 4
	return cfg
}

// checkRerun runs the benchmark again, from cfg carrying the retired
// Workers value, and requires the run bit-identical to base.
func checkRerun(t *testing.T, cfg config.Config, bench string, base gpu.Result) {
	t.Helper()
	compareResults(t, runOne(t, retiredWorkers(cfg), bench), base)
}

// compareResults asserts bit-identical observable state between two runs.
func compareResults(t *testing.T, opt, ref gpu.Result) {
	t.Helper()
	if opt.IPC != ref.IPC {
		t.Errorf("IPC diverged: %v vs %v", opt.IPC, ref.IPC)
	}
	if opt.Cycles != ref.Cycles || opt.Deadlocked != ref.Deadlocked {
		t.Errorf("run shape diverged: cycles %d/%d, deadlocked %v/%v",
			opt.Cycles, ref.Cycles, opt.Deadlocked, ref.Deadlocked)
	}
	if !reflect.DeepEqual(opt.GPU, ref.GPU) {
		t.Errorf("GPU stats diverged")
	}
	if !reflect.DeepEqual(opt.Net, ref.Net) {
		t.Errorf("network stats diverged (latency accumulators are order-sensitive: check ejection ordering)")
	}
	if ob, rb := telemetryJSONL(t, opt), telemetryJSONL(t, ref); !bytes.Equal(ob, rb) {
		t.Errorf("telemetry export diverged (%d vs %d bytes)", len(ob), len(rb))
	}
}

func telemetryJSONL(t *testing.T, res gpu.Result) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := res.Tel.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestStepperEquivalenceFig9Schemes covers the full Figure 9 design space,
// three seeds each: each run reproduced by a second one (checkRerun).
func TestStepperEquivalenceFig9Schemes(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed design-space sweep")
	}
	for _, s := range experiments.Fig9Schemes() {
		for _, seed := range []uint64{1, 7, 1234577} {
			t.Run(fmt.Sprintf("%s/seed=%d", s.Label, seed), func(t *testing.T) {
				t.Parallel()
				cfg := s.Apply(equivCfg())
				cfg.Seed = seed
				checkRerun(t, cfg, "KMN", runOne(t, cfg, "KMN"))
			})
		}
	}
}

// TestStepperEquivalenceDual covers the two-physical-subnets design, with
// full-width and half-width (linkPeriod=2) channels.
func TestStepperEquivalenceDual(t *testing.T) {
	for _, half := range []bool{false, true} {
		t.Run(fmt.Sprintf("halfwidth=%v", half), func(t *testing.T) {
			t.Parallel()
			cfg := equivCfg()
			cfg.NoC.PhysicalSubnets = true
			cfg.NoC.SubnetHalfWidth = half
			cfg.NoC.VCsPerPort = 4 // 2 per subnet
			checkRerun(t, cfg, "RED", runOne(t, cfg, "RED"))
		})
	}
}

// TestStepperEquivalenceAsymmetric covers the Figure 10 asymmetric VC
// partition (1 request : 3 reply), which stresses uneven per-class ranges
// in the precomputed injection and link VC tables.
func TestStepperEquivalenceAsymmetric(t *testing.T) {
	cfg := equivCfg()
	cfg.NoC.VCsPerPort = 4
	cfg.NoC.Routing = config.RoutingXYYX
	cfg.NoC.VCPolicy = config.VCAsymmetric
	checkRerun(t, cfg, "BFS", runOne(t, cfg, "BFS"))
}

// figureTablePasses counts TestFigureTableEquivalence's invocations.
var figureTablePasses uint64

// TestFigureTableEquivalence regenerates a figure table with jobs run
// concurrently and then one at a time from configurations carrying the
// retired Workers=4, and requires the rendered tables to be byte-identical
// — the property that makes the regenerated EXPERIMENTS.md trustworthy
// regardless of job parallelism or stored configurations. The figure
// runners' result memo folds Workers away, so the second Fig7 is answered
// entirely from the first one's runs; the synthetic-harness Sweep, which
// the memo does not serve, simulates both times.
func TestFigureTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a figure grid twice")
	}
	// A seed no earlier pass of this test used (go test -count=N), so every
	// pass simulates and the counter assertion below means what it says.
	figureTablePasses++
	base := experiments.Opts{
		Benchmarks:    []string{"KMN", "RED"},
		WarmupCycles:  400,
		MeasureCycles: 1600,
		Seed:          figureTablePasses,
	}
	par := base
	par.Parallel = 1
	par.Overrides = retiredWorkers

	sim0, reused0 := experiments.MemoCounts()
	baseTab, err := experiments.Fig7(base)
	if err != nil {
		t.Fatal(err)
	}
	sim1, _ := experiments.MemoCounts()
	parTab, err := experiments.Fig7(par)
	if err != nil {
		t.Fatal(err)
	}
	sim2, reused2 := experiments.MemoCounts()
	if want := int64(3 * len(base.Benchmarks)); sim1-sim0 != want || sim2-sim1 != 0 || reused2-reused0 != want {
		t.Fatalf("Fig7 simulated %d then %d runs and reused %d; want %d, 0, %d: Workers must not split the memo",
			sim1-sim0, sim2-sim1, reused2-reused0, want, want)
	}
	if baseTab.String() != parTab.String() {
		t.Errorf("Fig7 table diverged:\nconcurrent:\n%s\none at a time, carrying Workers=4:\n%s", baseTab, parTab)
	}

	// The synthetic-harness sweep exercises the custom RunFunc path.
	baseSweep, err := experiments.Sweep(experiments.Opts{MeasureCycles: 1500})
	if err != nil {
		t.Fatal(err)
	}
	parSweep, err := experiments.Sweep(experiments.Opts{MeasureCycles: 1500, Parallel: 1, Overrides: retiredWorkers})
	if err != nil {
		t.Fatal(err)
	}
	if baseSweep.String() != parSweep.String() {
		t.Errorf("Sweep table diverged:\nconcurrent:\n%s\none at a time, carrying Workers=4:\n%s", baseSweep, parSweep)
	}
}

// idleProfile is a pure-compute workload with long deterministic sleeps:
// every warp issues one 600-cycle op per wakeup and the system generates no
// memory traffic at all, so the fabric stays empty and almost every
// endpoint is asleep on almost every cycle.
func idleProfile() workload.Profile {
	return workload.Profile{
		Name: "IDLE", Suite: "synthetic",
		Locality: 0.5, FootprintBytes: 256 << 10,
		RunAhead: 4, LongOpFraction: 1, LongOpLatency: 600,
	}
}

// trickleProfile sleeps like idleProfile but issues occasional loads, so
// sleeping endpoints border real NoC/MC/DRAM activity — fills, drained
// outboxes and due warps all wake something.
func trickleProfile() workload.Profile {
	return workload.Profile{
		Name: "TRICKLE", Suite: "synthetic",
		MemFraction: 0.03, Locality: 0.6, FootprintBytes: 1 << 20,
		RunAhead: 2, LongOpFraction: 1, LongOpLatency: 900,
	}
}

// runProfile runs a profile (registered or not) instrumented.
func runProfile(t *testing.T, cfg config.Config, prof workload.Profile) gpu.Result {
	t.Helper()
	return runWith(t, cfg, prof, instrumented)
}

// runWith is runProfile with the instrumentation spelled out.
func runWith(t *testing.T, cfg config.Config, prof workload.Profile, inst gpu.Instrumentation) gpu.Result {
	t.Helper()
	sim, err := gpu.NewInstrumented(cfg, prof, inst)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkStepByStep drives a second, identically built simulator through the
// exported per-cycle API by hand — one Step per cycle, statistics off for
// the warmup, no run loop — and requires what that leaves observable from
// outside, the network statistics and the telemetry series (which samples
// the core counters), to match the run loop's result bit for bit.
func checkStepByStep(t *testing.T, cfg config.Config, prof workload.Profile, run gpu.Result) {
	t.Helper()
	sim, err := gpu.NewInstrumented(cfg, prof, instrumented)
	if err != nil {
		t.Fatal(err)
	}
	sim.Net.EnableStats(false)
	for i := 0; i < cfg.WarmupCycles; i++ {
		sim.Step()
	}
	sim.Net.EnableStats(true)
	for i := 0; i < cfg.MeasureCycles; i++ {
		sim.Step()
	}
	sim.Tel.Flush(int64(cfg.WarmupCycles + cfg.MeasureCycles))
	net := sim.Net.Stats()
	net.Cycles = int64(cfg.MeasureCycles)
	if !reflect.DeepEqual(run.Net, net) {
		t.Errorf("network stats diverged between RunContext and hand-stepping")
	}
	var b bytes.Buffer
	if err := sim.Tel.WriteJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if rb := telemetryJSONL(t, run); !bytes.Equal(rb, b.Bytes()) {
		t.Errorf("telemetry export diverged between RunContext and hand-stepping (%d vs %d bytes)", len(rb), b.Len())
	}
}

// TestStepperEquivalenceFastForward is the run-loop bookkeeping check,
// named for the jump the loop used to make: over the Figure 9 design space,
// three seeds each, and on the dual subnets, statistics and telemetry bytes
// must be identical whether RunContext or a hand-written Step loop drives
// the simulator.
func TestStepperEquivalenceFastForward(t *testing.T) {
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
				checkStepByStep(t, cfg, kmn, runProfile(t, cfg, kmn))
			})
		}
	}
	t.Run("dual", func(t *testing.T) {
		t.Parallel()
		cfg := equivCfg()
		cfg.NoC.PhysicalSubnets = true
		cfg.NoC.VCsPerPort = 4 // 2 per subnet
		checkStepByStep(t, cfg, kmn, runProfile(t, cfg, kmn))
	})
}

// TestStepperEquivalenceFastForwardIdle covers the most-asleep systems —
// the two profiles the jump used to fire on: a pure-compute profile (fabric
// always empty) and a trickle profile whose idle spans border real memory
// traffic. Both must match the hand-stepped run bit-for-bit.
func TestStepperEquivalenceFastForwardIdle(t *testing.T) {
	cfg := equivCfg()
	for _, prof := range []workload.Profile{idleProfile(), trickleProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			checkStepByStep(t, cfg, prof, runProfile(t, cfg, prof))
		})
	}
}

// TestStepperEquivalenceSoak reproduces longer runs with dense cycle-boundary
// readers: the telemetry sampler settles and reads the core-side counters
// every 16 cycles, and the sanitizer recounts the fabric against the in-flight
// tally every 7 — on the single network and on the dual subnets — and
// requires each run bit-identical to its rerun (carrying the retired
// Workers=4) and to the same run under the suite's sparse instrumentation.
func TestStepperEquivalenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	cfg := equivCfg()
	cfg.WarmupCycles = 800
	cfg.MeasureCycles = 4000

	dense := gpu.Instrumentation{SanitizeEvery: 7, TelemetryEpoch: 16}
	kmn := workload.MustGet("KMN")
	for _, dual := range []bool{false, true} {
		if dual {
			cfg.NoC.PhysicalSubnets = true
			cfg.NoC.VCsPerPort = 4
		}
		run := runWith(t, cfg, kmn, dense)
		compareResults(t, runWith(t, retiredWorkers(cfg), kmn, dense), run)
		if sparse := runProfile(t, cfg, kmn); sparse.IPC != run.IPC || !reflect.DeepEqual(sparse.Net, run.Net) {
			t.Errorf("dual=%v: the sanitizer or sampler cadence changed the run", dual)
		}
	}
}
