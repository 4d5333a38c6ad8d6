// Full-system oracle suite: a whole simulator must be indistinguishable from
// its reference twin — not statistically close, bit-identical. The twin's
// stage calls the simulator's own for every node every cycle and never lets
// a node leave the kernel's tick walk, so it is the schedule the shipped
// one's sleeping endpoints, skipped ticks charged in one add, and wakes
// (sink tails, inject wakes, a Dual's reply subnet waking the request
// subnet's walk) must reproduce. Anything less means a wake was lost or a
// settled count drifted, and every derived result (figure tables, latency
// distributions, telemetry) silently drifts with it. The router itself is
// held to the specification model (spec_test.go).
//
// The stage is reachable only through this package's export_test.go, so
// these comparisons live here, in the external test package that can drive
// a whole gpu.Simulator. Each comparison runs the twin once and the shipped
// simulator from configurations carrying the retired Workers values 1 and 4
// (workers_test.go), which must not change a bit.
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

// tickEveryCycle makes sim the reference twin: every cycle its stage ticks
// every endpoint and keeps it in the tick walk.
func tickEveryCycle(sim *gpu.Simulator) {
	stage := noc.Stage(sim.Net)
	sim.Net.SetStage(func(node int) bool { stage(node); return true })
}

// run simulates prof under cfg with telemetry every 400 cycles and the
// sanitizer every 256 — so CheckInvariants, the run-mask recount included,
// is exercised on both schedules — as shipped or as the reference twin.
func run(t *testing.T, cfg config.Config, prof workload.Profile, reference bool) gpu.Result {
	t.Helper()
	sim, err := gpu.NewInstrumented(cfg, prof, gpu.Instrumentation{SanitizeEvery: 256, TelemetryEpoch: 400})
	if err != nil {
		t.Fatal(err)
	}
	if reference {
		tickEveryCycle(sim)
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkOracle requires the shipped run opt and the twin's run ref to leave
// bit-identical observable state: IPC, run shape, core and network
// statistics (the floating-point Welford latency accumulators pin the
// ejection order) and the telemetry JSONL bytes.
func checkOracle(t *testing.T, opt, ref gpu.Result) {
	t.Helper()
	if opt.IPC != ref.IPC || opt.Cycles != ref.Cycles || opt.Deadlocked != ref.Deadlocked {
		t.Errorf("run shape diverged: IPC %v/%v, cycles %d/%d, deadlocked %v/%v",
			opt.IPC, ref.IPC, opt.Cycles, ref.Cycles, opt.Deadlocked, ref.Deadlocked)
	}
	if opt.GPU != ref.GPU {
		t.Errorf("GPU stats diverged:\n  shipped %+v\nreference %+v", opt.GPU, ref.GPU)
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

// checkOracleWorkers runs prof as the twin once, from the configuration
// carrying the retired Workers value 1, and holds the shipped run of each
// value the configuration may carry, 1 and 4, to it: one row per value.
func checkOracleWorkers(t *testing.T, cfg config.Config, prof workload.Profile) {
	t.Helper()
	cfg.NoC.Workers = 1
	ref := run(t, cfg, prof, true)
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			c := cfg
			c.NoC.Workers = w
			checkOracle(t, run(t, c, prof, false), ref)
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
				checkOracleWorkers(t, cfg, kmn)
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
			checkOracleWorkers(t, cfg, workload.MustGet("RED"))
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
	checkOracleWorkers(t, cfg, workload.MustGet("BFS"))
}

// trickle is a mostly-idle profile whose idle spans border real memory
// traffic.
var trickle = workload.Profile{Name: "TRICKLE", Suite: "synthetic", MemFraction: 0.03, Locality: 0.6, FootprintBytes: 1 << 20,
	RunAhead: 2, LongOpFraction: 1, LongOpLatency: 900}

// TestReferenceOracleIdle covers the mostly-empty fabric: a pure-compute
// profile that never touches it, and a trickle profile, so the kernel is
// repeatedly entered from and left in the empty state.
func TestReferenceOracleIdle(t *testing.T) {
	for _, prof := range []workload.Profile{
		{Name: "IDLE", Suite: "synthetic", Locality: 0.5, FootprintBytes: 256 << 10,
			RunAhead: 4, LongOpFraction: 1, LongOpLatency: 600},
		trickle,
	} {
		t.Run(prof.Name, func(t *testing.T) {
			t.Parallel()
			checkOracleWorkers(t, equivCfg(), prof)
		})
	}
}

// TestReferenceOracleSettled: a dormant SM leaves the kernel's tick walk and
// the ticks it was skipped are charged in one add, which must be exact at
// every cycle boundary. The simulator and its reference twin, which ticks
// every node every cycle, step side by side; after each
// cycle the settled core-side totals, StallCycles included, and the SMs'
// summed SleptTicks must agree — on one network and a Dual (whose reply
// subnet wakes the request subnet's walk), at Workers 1 and 4, saturated
// (dormant SMs everywhere) and mostly idle (timed sleepers, which stay in the
// walk, beside real memory traffic).
func TestReferenceOracleSettled(t *testing.T) {
	cycles := 1500
	if testing.Short() {
		cycles = 600
	}
	slept := func(sim *gpu.Simulator) (n int64) {
		for _, sm := range sim.SMs {
			n += sm.SleptTicks()
		}
		return n
	}
	for _, prof := range []workload.Profile{workload.MustGet("KMN"), trickle} {
		for _, dual := range []bool{false, true} {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/dual=%t/workers=%d", prof.Name, dual, w), func(t *testing.T) {
					cfg := equivCfg()
					cfg.NoC.Workers = w
					if dual {
						cfg.NoC.PhysicalSubnets, cfg.NoC.VCsPerPort = true, 4
					}
					var sims [2]*gpu.Simulator
					for i := range sims {
						sim, err := gpu.New(cfg, prof)
						if err != nil {
							t.Fatal(err)
						}
						sims[i] = sim
					}
					opt, ref := sims[0], sims[1]
					tickEveryCycle(ref)
					for c := 0; c < cycles; c++ {
						opt.Step()
						ref.Step()
						if got, want := opt.Totals(), ref.Totals(); got != want {
							t.Fatalf("cycle %d: settled totals diverged:\n  shipped %+v\nreference %+v", c, got, want)
						}
						if got, want := slept(opt), slept(ref); got != want {
							t.Fatalf("cycle %d: the SMs slept %d ticks, %d ticked every cycle", c, got, want)
						}
					}
					nodes := int64(cfg.NoC.Width * cfg.NoC.Height)
					calls := noc.Gates(opt.Net).StageCalls
					t.Logf("%d of %d ticks called", calls, int64(cycles)*nodes)
					// TRICKLE's SMs sleep until a readyAt, so they stay in the walk.
					if prof.Name == "KMN" && calls >= int64(cycles)*nodes {
						t.Errorf("the simulator called the stage for every node every cycle: no tick was skipped")
					}
				})
			}
		}
	}
}
