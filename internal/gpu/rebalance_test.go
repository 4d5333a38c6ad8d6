// Counted-cut suite: Simulator.Step re-cuts the kernel's lanes on a fixed
// schedule from counts alone, which must be invisible to results.
package gpu_test

import (
	"context"
	"slices"
	"testing"

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

// TestRebalanceInvisible: a run long enough for four cuts is bit-identical
// at every worker count, on one network and on the two subnets of a Dual
// (which the sanitizer holds to one partition).
func TestRebalanceInvisible(t *testing.T) {
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
				if got := digest(t, run(t, cfg, workload.MustGet("KMN"))); got != want {
					t.Errorf("workers=%d: run digest %s, serial run %s", w, got, want)
				}
			}
		})
	}
}
