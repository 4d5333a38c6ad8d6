// The run loop's characterization suite. Until global fast-forward was
// deleted, RunContext jumped over globally idle cycles and these tests
// compared it with a stepped oracle. The digests under testdata/ are what
// that fast-forwarding loop produced at its last commit; the plain loop —
// the only one left — must reproduce them bit for bit. IDLE and TRICKLE
// are the most-asleep systems the suite has, so they now exercise the
// endpoints' sleep and wake paths.
package gpu_test

import (
	"context"
	"flag"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/digests"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/*.digests from the current build")

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

// sanitizeEvery is the invariant-check period of every run in this file.
const sanitizeEvery = 256

// run simulates prof under cfg with telemetry every 400 cycles, the
// sanitizer every sanitizeEvery and the flight recorder on.
func run(t *testing.T, cfg config.Config, prof workload.Profile) gpu.Result {
	t.Helper()
	sim, err := gpu.NewInstrumented(cfg, prof, gpu.Instrumentation{
		SanitizeEvery: sanitizeEvery, TelemetryEpoch: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.AttachFlight(1<<12, "")
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sanitized lists the cycles of the run's passed invariant checks.
func sanitized(res gpu.Result) (cycles []int64) {
	for _, e := range res.Flight.Events() {
		if e.Kind == fleetobs.KindInvariantOK {
			cycles = append(cycles, e.Cycle)
		}
	}
	return cycles
}

// digest hashes everything a run leaves observable: IPC, core and network
// statistics (the latency accumulators pin ejection order), the telemetry
// JSONL bytes and the cycle of every passed invariant check.
func digest(t *testing.T, res gpu.Result) string {
	t.Helper()
	h := digests.New()
	fmt.Fprintf(h, "%d %+v %v\n", math.Float64bits(res.IPC), res.GPU, *res.Net)
	if err := res.Tel.WriteJSONL(h, nil); err != nil {
		t.Fatal(err)
	}
	h.Ints(sanitized(res)...)
	return h.String()
}

var digestSeeds = []uint64{1, 7, 1234577}

// TestFastForwardEquivalence pins whole runs of the Figure 9 design space,
// three seeds each, on a workload that saturates the fabric, to
// testdata/fig9.digests. (The name and the digests' origin are the retired
// run-loop fast-forward's: the file was generated while it was armed on
// every cycle and never fired.)
func TestFastForwardEquivalence(t *testing.T) {
	kmn := workload.MustGet("KMN")
	var keys, got []string
	for _, s := range experiments.Fig9Schemes() {
		for _, seed := range digestSeeds {
			// A digest line is "key digest": no spaces in the key.
			key := strings.ReplaceAll(fmt.Sprintf("%s/seed=%d", s.Label, seed), " ", "_")
			t.Run(key, func(t *testing.T) {
				cfg := s.Apply(equivCfg())
				cfg.Seed = seed
				keys, got = append(keys, key), append(got, digest(t, run(t, cfg, kmn)))
			})
		}
	}
	for _, msg := range digests.Check("testdata/fig9.digests", *updateDigests, keys, got) {
		t.Error(msg)
	}
}

// TestFastForwardEquivalenceIdle pins whole runs of the two mostly-asleep
// profiles — most of IDLE, and TRICKLE's idle spans beside real memory
// traffic — on the single network and on the dual physical subnets, three
// seeds each, to testdata/idle.digests. (Named for the retired run-loop
// fast-forward, which skipped those spans when the digests were generated.)
func TestFastForwardEquivalenceIdle(t *testing.T) {
	var keys, got []string
	for _, net := range []string{"single", "dual"} {
		for _, prof := range []workload.Profile{idleProfile(), trickleProfile()} {
			t.Run(net+"/"+prof.Name, func(t *testing.T) {
				for _, seed := range digestSeeds {
					cfg := equivCfg()
					cfg.Seed = seed
					if net == "dual" {
						cfg.NoC.PhysicalSubnets, cfg.NoC.VCsPerPort = true, 4 // 2 per subnet
					}
					key := fmt.Sprintf("%s/%s/seed=%d", net, prof.Name, seed)
					keys, got = append(keys, key), append(got, digest(t, run(t, cfg, prof)))
				}
			})
		}
	}
	for _, msg := range digests.Check("testdata/idle.digests", *updateDigests, keys, got) {
		t.Error(msg)
	}
}

// TestSanitizerCadence: the run loop checks the invariants exactly every
// sanitizeEvery cycles, warm-up and measurement counted as one span, on the
// systems whose endpoints are mostly asleep when the check reads them.
func TestSanitizerCadence(t *testing.T) {
	cfg := equivCfg()
	var want []int64
	for c := sanitizeEvery; c <= cfg.WarmupCycles+cfg.MeasureCycles; c += sanitizeEvery {
		want = append(want, int64(c))
	}
	for _, prof := range []workload.Profile{idleProfile(), trickleProfile()} {
		t.Run(prof.Name, func(t *testing.T) {
			if got := sanitized(run(t, cfg, prof)); !reflect.DeepEqual(got, want) {
				t.Errorf("invariant checks at cycles %v, want %v", got, want)
			}
		})
	}
}
