package gpu_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/digests"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

// resultDigest hashes what a run leaves in its Result: IPC, core and
// network statistics, and how it ended.
func resultDigest(res gpu.Result) string {
	h := digests.New()
	fmt.Fprintf(h, "%d %d %t %+v %v\n", math.Float64bits(res.IPC), res.Cycles, res.Deadlocked, res.GPU, *res.Net)
	return h.String()
}

// TestResetMatchesNew is the differential test of Reset: for every ordered
// pair (A, B) of design points that share a shape — KMN, RAY and NQU at two
// seeds, on one network and on two physical subnets — a simulator that ran
// A and was then Reset to B must leave exactly what a simulator New built
// for B from a configuration carrying the retired Workers value 1 leaves;
// the Reset simulator runs from configurations carrying Workers 1 and 4, one
// subtest each, against that one table of new simulators. A runs to
// completion or is cancelled at its first checkpoint with the fabric full; B
// runs to completion, or is cancelled too, whose partial result reports
// absolute counters. Right after the Reset the fabric must be empty and
// consistent, and the sanitizer checks every 256 cycles that Reset left no
// stale schedule behind.
func TestResetMatchesNew(t *testing.T) {
	type point struct {
		bench string
		seed  uint64
	}
	var points []point
	for _, b := range []string{"KMN", "RAY", "NQU"} {
		for _, seed := range []uint64{1, 7} {
			points = append(points, point{b, seed})
		}
	}
	bg := context.Background()
	cancelled, cancel := context.WithCancel(bg)
	cancel()
	run := func(t *testing.T, sim *gpu.Simulator, ctx context.Context) gpu.Result {
		t.Helper()
		sim.SanitizeEvery = 256
		res, err := sim.RunContext(ctx)
		if err != ctx.Err() {
			t.Fatalf("run error %v, context error %v", err, ctx.Err())
		}
		return res
	}
	type outcome struct {
		p         point
		cancelled bool
	}
	for _, dual := range []bool{false, true} {
		cfgOf := func(p point, workers int) config.Config {
			cfg := config.Default()
			cfg.WarmupCycles, cfg.MeasureCycles = 520, 180 // a cancelled run stops at warm-up cycle 512
			cfg.NoC.Workers = workers
			if dual {
				cfg.NoC.PhysicalSubnets, cfg.NoC.VCsPerPort = true, 4
			}
			cfg.Seed = p.seed
			return cfg
		}
		fresh := map[outcome]string{}
		for _, p := range points {
			for _, ctx := range []context.Context{bg, cancelled} {
				sim, err := gpu.New(cfgOf(p, 1), workload.MustGet(p.bench))
				if err != nil {
					t.Fatal(err)
				}
				fresh[outcome{p, ctx.Err() != nil}] = resultDigest(run(t, sim, ctx))
			}
		}
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("dual=%v/workers=%d", dual, workers), func(t *testing.T) {
				sim, err := gpu.New(cfgOf(points[0], workers), workload.MustGet(points[0].bench))
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range points {
					for _, ctxs := range [][2]context.Context{{bg, bg}, {cancelled, bg}, {bg, cancelled}} {
						for _, b := range points {
							if err := sim.Reset(cfgOf(a, workers), workload.MustGet(a.bench)); err != nil {
								t.Fatal(err)
							}
							run(t, sim, ctxs[0])
							if err := sim.Reset(cfgOf(b, workers), workload.MustGet(b.bench)); err != nil {
								t.Fatal(err)
							}
							if n := sim.Net.FlitsInFlight(); n != 0 {
								t.Fatalf("%v after %v: %d flits in flight after Reset", b, a, n)
							}
							if err := sim.Net.CheckInvariants(); err != nil {
								t.Fatalf("%v after %v: after Reset: %v", b, a, err)
							}
							want := fresh[outcome{b, ctxs[1].Err() != nil}]
							if got := resultDigest(run(t, sim, ctxs[1])); got != want {
								t.Errorf("%v (cancelled %t) after %v (cancelled %t): digest %s, a new simulator's %s",
									b, ctxs[1].Err() != nil, a, ctxs[0].Err() != nil, got, want)
							}
						}
					}
				}
			})
		}
	}
}

// TestResetAcrossDesignPoints is the differential test of rewiring: for
// every ordered pair (A, B) of the design points of Figs. 7-9 — three
// routings, three VC policies, four MC placements — a simulator built for A
// that ran A and was then Reset to B must leave exactly what a simulator New
// built for B leaves, under KMN and under RAY; and two physical subnets
// likewise across XY and YX. Right after each Reset the fabric must be
// empty and consistent, and the sanitizer checks every 256 cycles that the
// rewired network and endpoints keep their invariants.
func TestResetAcrossDesignPoints(t *testing.T) {
	seen := map[core.Scheme]bool{}
	var single []config.Config
	for _, schemes := range [][]core.Scheme{
		{core.Baseline, core.YXSplit, core.XYYXSplit},
		{core.XYMonopolized, core.YXMonopolized, core.XYYXPartialMono},
		experiments.Fig9Schemes(),
	} {
		for _, sc := range schemes {
			sc.Label = ""
			if !seen[sc] {
				seen[sc] = true
				single = append(single, sc.Apply(designCfg()))
			}
		}
	}
	var dual []config.Config
	for _, rt := range []config.Routing{config.RoutingXY, config.RoutingYX} {
		cfg := designCfg()
		cfg.NoC.PhysicalSubnets, cfg.NoC.VCsPerPort, cfg.NoC.Routing = true, 4, rt
		dual = append(dual, cfg)
	}
	for _, tc := range []struct {
		name   string
		bench  string
		points []config.Config
	}{
		{"single/KMN", "KMN", single},
		{"single/RAY", "RAY", single},
		{"dual/KMN", "KMN", dual},
		{"dual/RAY", "RAY", dual},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prof := workload.MustGet(tc.bench)
			run := func(sim *gpu.Simulator) string {
				t.Helper()
				sim.SanitizeEvery = 256
				res, err := sim.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				return resultDigest(res)
			}
			name := func(cfg config.Config) string {
				return fmt.Sprintf("%s/%s/%s", cfg.Placement, cfg.NoC.Routing, cfg.NoC.VCPolicy)
			}
			fresh := make([]string, len(tc.points))
			for i, cfg := range tc.points {
				sim, err := gpu.New(cfg, prof)
				if err != nil {
					t.Fatal(err)
				}
				fresh[i] = run(sim)
			}
			reset := func(sim *gpu.Simulator, to, from config.Config) {
				t.Helper()
				if err := sim.Reset(to, prof); err != nil {
					t.Fatalf("Reset from %s to %s: %v", name(from), name(to), err)
				}
				if n := sim.Net.FlitsInFlight(); n != 0 {
					t.Fatalf("%s after %s: %d flits in flight after Reset", name(to), name(from), n)
				}
				if err := sim.Net.CheckInvariants(); err != nil {
					t.Fatalf("%s after %s: after Reset: %v", name(to), name(from), err)
				}
			}
			for i, a := range tc.points {
				sim, err := gpu.New(a, prof)
				if err != nil {
					t.Fatal(err)
				}
				for j, b := range tc.points {
					if got := run(sim); got != fresh[i] {
						t.Fatalf("%s before a Reset to %s: digest %s, a new simulator's %s", name(a), name(b), got, fresh[i])
					}
					reset(sim, b, a)
					if got := run(sim); got != fresh[j] {
						t.Errorf("%s after %s: digest %s, a new simulator's %s", name(b), name(a), got, fresh[j])
					}
					reset(sim, a, b)
				}
			}
		})
	}
}

// designCfg is a short run of the Table 2 system for the design-point
// sweep of TestResetAcrossDesignPoints.
func designCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles = 200, 300
	return cfg
}

// TestResetRefusesOtherShapes: Reset rewinds a simulator only to a design
// point its storage was built for — another VC count, mesh or number of
// physical subnets is refused — and rewires it to any placement, routing
// and VC policy.
func TestResetRefusesOtherShapes(t *testing.T) {
	cfg := config.Default()
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	for name, storage := range map[string]func(*config.Config){
		"VCsPerPort":      func(c *config.Config) { c.NoC.VCsPerPort = 4 },
		"mesh size":       func(c *config.Config) { c.NoC.Width, c.NoC.Height, c.Core.NumSMs = 6, 6, 28 },
		"PhysicalSubnets": func(c *config.Config) { c.NoC.PhysicalSubnets = true },
	} {
		other := cfg
		storage(&other)
		if err := sim.Reset(other, workload.MustGet("KMN")); err == nil {
			t.Errorf("Reset to another %s succeeded", name)
		}
	}
	wiring := cfg
	wiring.Placement, wiring.NoC.Routing, wiring.NoC.VCPolicy = config.PlacementEdge, config.RoutingXYYX, config.VCPartialMonopolized
	wiring.Seed, wiring.WarmupCycles, wiring.MeasureCycles = 9, 10, 20
	if err := sim.Reset(wiring, workload.MustGet("RAY")); err != nil {
		t.Errorf("Reset to another placement, routing, VC policy, seed, run length and benchmark: %v", err)
	}
}
