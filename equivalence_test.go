// Kernel-equivalence suite over the public surface: the shipped cycle
// kernel must produce bit-identical results — not statistically close — at
// every worker count, and the run loop must be indistinguishable from
// driving Simulator.Step by hand, one call per cycle. Anything less means a
// cross-domain merge ran out of order or the loop's bookkeeping (statistics
// off during warm-up, the closing telemetry flush) touched something
// observable, and every derived result (figure tables, latency
// distributions, telemetry) silently drifts.
//
// Coverage: the eight Figure 9 schemes (every placement, routing, and VC
// policy family) × three seeds × workers ∈ {1, 2, 4, 8}, plus the dual
// physical subnets with full- and half-width channels, each compared on
// IPC, cycle count, the complete stats.Net (including floating-point
// Welford latency accumulators, which pin the ejection order), and the
// full telemetry JSONL export. Runs are sanitized, so CheckInvariants —
// including the run-mask recount — is exercised throughout.
//
// The oracle that is not part of the shipped surface, the full-scan
// reference stepper, is compared where it is visible: in
// internal/noc/oracle_test.go.
package gpgpunoc_test

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

// forcePool keeps the multi-worker comparisons honest on a one-core
// machine: a simulator built on a single-P runtime gets no lane workers and
// runs its lanes on the stepping goroutine (bit-identical, see noc's
// workerPool), which would quietly remove the concurrent kernel — and
// everything the race detector learns from it — from this suite. Bumping
// GOMAXPROCS before construction restores the real concurrent kernel;
// results cannot depend on it.
func forcePool(t testing.TB) {
	if runtime.GOMAXPROCS(0) > 1 {
		return
	}
	old := runtime.GOMAXPROCS(2)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

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

// runOne runs the named benchmark instrumented with the given kernel worker
// count.
func runOne(t *testing.T, cfg config.Config, bench string, workers int) gpu.Result {
	t.Helper()
	return runProfile(t, cfg, workload.MustGet(bench), workers)
}

// checkWorkers runs the benchmark at each worker count and requires every
// run bit-identical to the single-threaded baseline.
func checkWorkers(t *testing.T, cfg config.Config, bench string, base gpu.Result, workers ...int) {
	t.Helper()
	for _, w := range workers {
		compareResults(t, runOne(t, cfg, bench, w), base)
	}
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
// three seeds each: the parallel kernel at workers ∈ {2, 4, 8} against the
// single-threaded run.
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
				checkWorkers(t, cfg, "KMN", runOne(t, cfg, "KMN", 1), 2, 4, 8)
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
			checkWorkers(t, cfg, "RED", runOne(t, cfg, "RED", 1), 4)
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
	checkWorkers(t, cfg, "BFS", runOne(t, cfg, "BFS", 1), 4)
}

// figureTablePasses counts TestFigureTableEquivalence's invocations.
var figureTablePasses uint64

// TestFigureTableEquivalence regenerates a figure table with jobs run
// concurrently on the serial kernel and one at a time on the four-lane
// kernel and requires the rendered tables to be byte-identical — the
// property that makes the regenerated EXPERIMENTS.md trustworthy regardless
// of job parallelism or worker count.
func TestFigureTableEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("regenerates a figure grid twice")
	}
	forcePool(t)
	lanes := func(c config.Config) config.Config { c.NoC.Workers = 4; return c }
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
	par.Overrides = lanes

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
	// The figure runners reuse finished runs keyed by the exact
	// configuration. Keyed by anything that folds Workers away, the second
	// pass would be handed the first one's results and this test would
	// compare a table with itself.
	if want := int64(3 * len(base.Benchmarks)); sim1-sim0 != want || sim2-sim1 != want || reused2 != reused0 {
		t.Fatalf("Fig7 simulated %d then %d runs and reused %d; want %d, %d, 0: both kernels must run",
			sim1-sim0, sim2-sim1, reused2-reused0, want, want)
	}
	if baseTab.String() != parTab.String() {
		t.Errorf("Fig7 table diverged between kernels:\nserial:\n%s\nworkers=4:\n%s", baseTab, parTab)
	}

	// The synthetic-harness sweep exercises the custom RunFunc path.
	baseSweep, err := experiments.Sweep(experiments.Opts{MeasureCycles: 1500})
	if err != nil {
		t.Fatal(err)
	}
	parSweep, err := experiments.Sweep(experiments.Opts{MeasureCycles: 1500, Parallel: 1, Overrides: lanes})
	if err != nil {
		t.Fatal(err)
	}
	if baseSweep.String() != parSweep.String() {
		t.Errorf("Sweep table diverged between kernels:\nserial:\n%s\nworkers=4:\n%s", baseSweep, parSweep)
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

// runProfile runs a profile (registered or not) instrumented at the given
// worker count.
func runProfile(t *testing.T, cfg config.Config, prof workload.Profile, workers int) gpu.Result {
	t.Helper()
	return runWith(t, cfg, prof, workers, instrumented)
}

// runWith is runProfile with the instrumentation spelled out.
func runWith(t *testing.T, cfg config.Config, prof workload.Profile, workers int, inst gpu.Instrumentation) gpu.Result {
	t.Helper()
	if workers > 1 {
		forcePool(t)
	}
	cfg.NoC.Workers = workers
	sim, err := gpu.NewInstrumented(cfg, prof, inst)
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatalf("workers=%d: %v", workers, err)
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
	defer sim.Close()
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
				checkStepByStep(t, cfg, kmn, runProfile(t, cfg, kmn, 1))
			})
		}
	}
	t.Run("dual", func(t *testing.T) {
		t.Parallel()
		cfg := equivCfg()
		cfg.NoC.PhysicalSubnets = true
		cfg.NoC.VCsPerPort = 4 // 2 per subnet
		checkStepByStep(t, cfg, kmn, runProfile(t, cfg, kmn, 1))
	})
}

// TestStepperEquivalenceFastForwardIdle covers the most-asleep systems —
// the two profiles the jump used to fire on: a pure-compute profile (fabric
// always empty) and a trickle profile whose idle spans border real memory
// traffic. Both must match the hand-stepped run bit-for-bit, and the
// four-lane kernel must match the serial one.
func TestStepperEquivalenceFastForwardIdle(t *testing.T) {
	cfg := equivCfg()
	for _, prof := range []workload.Profile{idleProfile(), trickleProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			serial := runProfile(t, cfg, prof, 1)
			checkStepByStep(t, cfg, prof, serial)
			compareResults(t, runProfile(t, cfg, prof, 4), serial)
		})
	}
}

// TestStepperEquivalenceSoak runs the workers=4 kernel over a longer run —
// under -race in CI, this is the soak that lets the detector watch barrier
// generations, endpoint ticks on the lanes and endpoint sleeps and wakes
// interleave for real — and requires bit-identity with the serial run. The
// dense variants put the two cycle-boundary readers of lane-written state
// right behind the workers: the telemetry sampler folds the per-endpoint
// counter shards every 16 cycles, and the sanitizer recounts the fabric
// against the sharded in-flight tally every 7, on the single network and on
// the dual subnets that share one pool.
func TestStepperEquivalenceSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("long soak")
	}
	cfg := equivCfg()
	cfg.WarmupCycles = 800
	cfg.MeasureCycles = 4000

	checkWorkers(t, cfg, "KMN", runOne(t, cfg, "KMN", 1), 4)

	prof := idleProfile()
	compareResults(t, runProfile(t, cfg, prof, 4), runProfile(t, cfg, prof, 1))

	dense := gpu.Instrumentation{SanitizeEvery: 7, TelemetryEpoch: 16}
	kmn := workload.MustGet("KMN")
	compareResults(t, runWith(t, cfg, kmn, 4, dense), runWith(t, cfg, kmn, 1, dense))
	cfg.NoC.PhysicalSubnets = true
	cfg.NoC.VCsPerPort = 4
	compareResults(t, runWith(t, cfg, kmn, 4, dense), runWith(t, cfg, kmn, 1, dense))
}
