package gpu_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/digests"
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
// for B leaves, at one lane and at four. A runs to completion or is
// cancelled at its first checkpoint with the fabric full; B runs to
// completion, or is cancelled too, whose partial result reports absolute
// counters. Right after the Reset the fabric must be empty and consistent
// (noc's TestResetRestoresEqualStripes checks the lane cut), and the
// sanitizer checks every 256 cycles that Reset left no stale schedule
// behind.
func TestResetMatchesNew(t *testing.T) {
	forcePool(t)
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
	for _, dual := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			t.Run(fmt.Sprintf("dual=%v/workers=%d", dual, workers), func(t *testing.T) {
				cfgOf := func(p point) config.Config {
					cfg := config.Default()
					cfg.WarmupCycles, cfg.MeasureCycles = 520, 180 // a cancelled run stops at warm-up cycle 512
					cfg.NoC.Workers = workers
					if dual {
						cfg.NoC.PhysicalSubnets, cfg.NoC.VCsPerPort = true, 4
					}
					cfg.Seed = p.seed
					return cfg
				}
				run := func(sim *gpu.Simulator, ctx context.Context) gpu.Result {
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
				fresh := map[outcome]string{}
				for _, p := range points {
					for _, ctx := range []context.Context{bg, cancelled} {
						sim, err := gpu.New(cfgOf(p), workload.MustGet(p.bench))
						if err != nil {
							t.Fatal(err)
						}
						fresh[outcome{p, ctx.Err() != nil}] = resultDigest(run(sim, ctx))
						sim.Close()
					}
				}
				sim, err := gpu.New(cfgOf(points[0]), workload.MustGet(points[0].bench))
				if err != nil {
					t.Fatal(err)
				}
				defer sim.Close()
				for _, a := range points {
					for _, ctxs := range [][2]context.Context{{bg, bg}, {cancelled, bg}, {bg, cancelled}} {
						for _, b := range points {
							if err := sim.Reset(cfgOf(a), workload.MustGet(a.bench)); err != nil {
								t.Fatal(err)
							}
							run(sim, ctxs[0])
							if err := sim.Reset(cfgOf(b), workload.MustGet(b.bench)); err != nil {
								t.Fatal(err)
							}
							if n := sim.Net.FlitsInFlight(); n != 0 {
								t.Fatalf("%v after %v: %d flits in flight after Reset", b, a, n)
							}
							if err := sim.Net.CheckInvariants(); err != nil {
								t.Fatalf("%v after %v: after Reset: %v", b, a, err)
							}
							want := fresh[outcome{b, ctxs[1].Err() != nil}]
							if got := resultDigest(run(sim, ctxs[1])); got != want {
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

// TestResetRefusesOtherShapes: Reset rewinds a simulator only to a design
// point its storage was built for.
func TestResetRefusesOtherShapes(t *testing.T) {
	cfg := config.Default()
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	other := cfg
	other.NoC.Routing = config.RoutingYX
	if err := sim.Reset(other, workload.MustGet("KMN")); err == nil {
		t.Error("Reset to another routing succeeded")
	}
	same := cfg
	same.Seed, same.WarmupCycles, same.MeasureCycles = 9, 10, 20
	if err := sim.Reset(same, workload.MustGet("RAY")); err != nil {
		t.Errorf("Reset to another seed, run length and benchmark: %v", err)
	}
}
