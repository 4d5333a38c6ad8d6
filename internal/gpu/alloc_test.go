package gpu_test

import (
	"fmt"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

// TestStepSteadyStateDoesNotAllocate pins Simulator.Step, endpoints and
// kernel together, at zero allocations per cycle once a run has warmed up:
// each SM and MC draws its packets from the storage of the ones it ejected,
// the MSHR is a fixed table, and the DRAM channel reuses its
// completion list. The free lists fill lazily, so an endpoint still
// allocates when its in-flight population reaches a new peak: after 4,000
// cycles that is a few allocations per hundred cycles and falling, which
// AllocsPerRun's whole allocations per cycle read as 0, where one
// allocation per packet reads 1 or more. KMN is read-heavy and RAY
// write-heavy, each on one network and on a Dual, from configurations
// carrying the retired Workers values 1 and 4. internal/noc's
// TestSteadyStateStepDoesNotAllocate pins the kernel alone.
func TestStepSteadyStateDoesNotAllocate(t *testing.T) {
	for _, bench := range []string{"KMN", "RAY"} {
		for _, dual := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/dual=%v/workers=%d", bench, dual, workers), func(t *testing.T) {
					cfg := config.Default()
					cfg.NoC.Workers = workers
					if dual {
						cfg.NoC.PhysicalSubnets = true
						cfg.NoC.VCsPerPort = 4
					}
					sim, err := gpu.New(cfg, workload.MustGet(bench))
					if err != nil {
						t.Fatal(err)
					}
					for range 4000 {
						sim.Step()
					}
					if a := testing.AllocsPerRun(1000, sim.Step); a != 0 {
						t.Errorf("Simulator.Step allocates %.0f times per cycle after warm-up, want 0", a)
					}
				})
			}
		}
	}
}
