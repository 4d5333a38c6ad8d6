// Observability-equivalence suite: span tracing must be a pure observer.
// Attaching spans at rate 0 must leave every simulation result bit-identical
// to a run without spans; at rate 1 the per-packet span decomposition must
// agree exactly with the telemetry latency histograms, which compute the
// same four segments from packet timestamps through a completely different
// path.
package gpgpunoc_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/workload"
)

func obsCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 400
	cfg.MeasureCycles = 1600
	return cfg
}

func newSim(t *testing.T, cfg config.Config, bench string, inst gpu.Instrumentation) *gpu.Simulator {
	t.Helper()
	prof, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpu.NewInstrumented(cfg, prof, inst)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(sim.Close)
	return sim
}

// runSim runs sim to completion; a run that ends in an error fails the test.
func runSim(t *testing.T, sim *gpu.Simulator) gpu.Result {
	t.Helper()
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSpanRateZeroMatchesDisabled pins the zero-overhead-when-off contract
// on a Figure 9 scheme: a run with the span collector attached at rate 0
// must be bit-identical — IPC, GPU counters, and the full network stats
// including floating-point latency accumulators — to a run without it.
func TestSpanRateZeroMatchesDisabled(t *testing.T) {
	cfg := obsCfg()
	cfg.Placement = config.PlacementBottom
	cfg.NoC.Routing = config.RoutingYX

	plain := newSim(t, cfg, "KMN", gpu.Instrumentation{})
	resPlain := runSim(t, plain)

	traced := newSim(t, cfg, "KMN", gpu.Instrumentation{Spans: true})
	resTraced := runSim(t, traced)

	if resPlain.IPC != resTraced.IPC {
		t.Errorf("IPC diverged: %v vs %v", resPlain.IPC, resTraced.IPC)
	}
	if resPlain.GPU != resTraced.GPU {
		t.Errorf("GPU counters diverged:\n%+v\n%+v", resPlain.GPU, resTraced.GPU)
	}
	if !reflect.DeepEqual(resPlain.Net, resTraced.Net) {
		t.Error("network stats diverged between rate-0 and disabled runs")
	}
	if resTraced.Spans.NumTraces() != 0 {
		t.Errorf("rate 0 traced %d packets", resTraced.Spans.NumTraces())
	}
}

// TestSpanSegmentsMatchTelemetry cross-checks the two latency paths at
// sample rate 1: the telemetry histograms decompose each transaction from
// timestamps the packets carry, while the span transactions recompute the
// same four segments from recorded event cycles. Count and sum must agree
// exactly, per transaction kind and segment.
func TestSpanSegmentsMatchTelemetry(t *testing.T) {
	sim := newSim(t, obsCfg(), "KMN", gpu.Instrumentation{TelemetryEpoch: 400, Spans: true, SpanRate: 1})
	tel := sim.Tel
	res := runSim(t, sim)

	type agg struct {
		count int64
		sum   [4]int64
	}
	byKind := map[string]*agg{"read": {}, "write": {}}
	complete := 0
	for _, x := range res.Spans.Transactions() {
		if !x.Complete {
			continue
		}
		complete++
		kind := "write"
		if x.Read {
			kind = "read"
		}
		a := byKind[kind]
		a.count++
		for i, s := range x.Segments {
			a.sum[i] += s
		}
	}
	if complete == 0 {
		t.Fatal("no complete transactions at rate 1; the run produced no traffic")
	}

	for kind, a := range byKind {
		for seg := telemetry.Segment(0); seg < telemetry.NumSegments; seg++ {
			h := tel.Reg.FindHistogram(fmt.Sprintf("latency.%s.%s", kind, seg))
			if h == nil {
				t.Fatalf("no histogram latency.%s.%s", kind, seg)
			}
			if h.Count() != a.count {
				t.Errorf("latency.%s.%s: telemetry count %d, spans %d", kind, seg, h.Count(), a.count)
			}
			if h.Sum() != a.sum[seg] {
				t.Errorf("latency.%s.%s: telemetry sum %d, spans %d", kind, seg, h.Sum(), a.sum[seg])
			}
		}
	}
}
