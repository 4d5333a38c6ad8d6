// Counted-cut suite: Simulator.Step re-cuts the kernel's lanes on a fixed
// schedule from counts alone, which must be invisible to results and visible
// to the operator.
package gpu_test

import (
	"context"
	"slices"
	"testing"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/workload"
)

// cutNet records the cycle of every Rebalance the simulator issues and
// shows the endpoint-work function it hands over to probe, when set.
type cutNet struct {
	noc.Interconnect
	at    []int64
	probe func(work func(lo, hi int) int64)
}

func (c *cutNet) Rebalance(endpointWork func(lo, hi int) int64) {
	c.at = append(c.at, c.Cycle())
	if c.probe != nil {
		c.probe(endpointWork)
	}
	c.Interconnect.Rebalance(endpointWork)
}

// TestRebalanceSchedule: cuts happen at the power-of-two cycles from 256 and
// nowhere else, through Simulator.Net like everything else a decorator must
// see, and the endpoint term handed over counts awake ticks: cumulative,
// additive over node ranges, and at most one per endpoint per cycle.
func TestRebalanceSchedule(t *testing.T) {
	cfg := equivCfg()
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 2000
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	wrap := &cutNet{Interconnect: sim.Net}
	sim.Net = wrap
	if _, err := sim.RunContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if want := []int64{256, 512, 1024, 2048}; !slices.Equal(wrap.at, want) {
		t.Errorf("Rebalance ran at cycles %v over 2,300, want %v", wrap.at, want)
	}

	nodes := cfg.NoC.Width * cfg.NoC.Height
	var whole, parts int64
	wrap.probe = func(work func(lo, hi int) int64) {
		whole = work(0, nodes)
		for lo := 0; lo < nodes; lo += cfg.NoC.Width {
			parts += work(lo, lo+cfg.NoC.Width)
		}
	}
	for sim.Net.Cycle() < 4096 {
		sim.Step()
	}
	endpoints := int64(len(sim.SMs) + len(sim.MCs))
	if whole != parts || whole <= 0 || whole > 4096*endpoints {
		t.Errorf("endpoint work over the mesh is %d, %d summed by rows, of at most %d ticks", whole, parts, 4096*endpoints)
	}
	var slept int64
	for _, sm := range sim.SMs {
		slept += sm.SleptTicks()
	}
	for _, m := range sim.MCs {
		slept += m.SleptTicks()
	}
	if whole != 4096*endpoints-slept {
		t.Errorf("endpoint work %d, but %d ticks of %d slept", whole, slept, 4096*endpoints)
	}
}

// TestRebalanceInvisibleAndObservable: a run long enough for four cuts is
// bit-identical at every worker count, on one network and on the two subnets
// of a Dual (which the sanitizer holds to one partition), and the cut is
// visible: the flight recorder carries one retile event per lane whose rows
// changed, and replaying them over equal stripes gives exactly the partition
// StateSnapshot reports — contiguous, covering the mesh, shares summing to 1.
func TestRebalanceInvisibleAndObservable(t *testing.T) {
	for _, dual := range []bool{false, true} {
		name := "single"
		if dual {
			name = "dual"
		}
		t.Run(name, func(t *testing.T) {
			cfg := equivCfg()
			cfg.WarmupCycles, cfg.MeasureCycles = 300, 2000
			if dual {
				cfg.NoC.PhysicalSubnets, cfg.NoC.VCsPerPort = true, 4
			}
			cfg.NoC.Workers = 1
			want := digest(t, run(t, cfg, workload.MustGet("KMN")))
			for _, w := range []int{2, 3, 4} {
				cfg.NoC.Workers = w
				forcePool(t)
				sim, err := gpu.NewInstrumented(cfg, workload.MustGet("KMN"), gpu.Instrumentation{
					SanitizeEvery: sanitizeEvery, TelemetryEpoch: 400, FlightRecorder: 1 << 12,
				})
				if err != nil {
					t.Fatal(err)
				}
				res, err := sim.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				lanes := sim.Net.StateSnapshot().Lanes
				sim.Close()
				if got := digest(t, res); got != want {
					t.Errorf("workers=%d: run digest %s, serial run %s", w, got, want)
				}

				h := cfg.NoC.Height
				first, rows := make([]int, w), make([]int, w)
				for i := range first {
					first[i], rows[i] = i*h/w, (i+1)*h/w-i*h/w
				}
				retiles := 0
				for _, e := range res.Flight.Events() {
					if e.Kind == fleetobs.KindRetile {
						retiles++
						if c := e.Cycle; c < 256 || c&(c-1) != 0 {
							t.Errorf("workers=%d: retile event at cycle %d", w, c)
						}
						first[e.A], rows[e.A] = int(e.B), int(e.C)
					}
				}
				if retiles == 0 {
					t.Errorf("workers=%d: four cuts of a bottom-heavy run recorded no retile event", w)
				}
				next, share := 0, 0.0
				for i, l := range lanes {
					if l.Lane != i || l.FirstRow != next || l.Rows < 1 || l.FirstRow != first[i] || l.Rows != rows[i] {
						t.Errorf("workers=%d: snapshot lane %+v, previous lane ended at row %d, flight log says rows %d+%d", w, l, next, first[i], rows[i])
					}
					next += l.Rows
					share += l.WorkShare
				}
				if len(lanes) != w || next != h || share < 0.999 || share > 1.001 {
					t.Errorf("workers=%d: %d lanes cover %d of %d rows with shares summing to %.3f", w, len(lanes), next, h, share)
				}
			}
		})
	}
}
