package gpu

import (
	"context"
	"testing"

	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/workload"
)

func TestInstrumentedRun(t *testing.T) {
	cfg := quickCfg()
	res, err := Run(context.Background(), cfg, "KMN", Instrumentation{TelemetryEpoch: 500})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tel == nil {
		t.Fatal("instrumented run returned no telemetry")
	}

	// The epoch series covers the whole run (warmup + measure) and always
	// ends at the final cycle thanks to the closing flush.
	total := int64(cfg.WarmupCycles + cfg.MeasureCycles)
	samples := res.Tel.Samples()
	if want := int(total / 500); len(samples) < want {
		t.Fatalf("%d samples for %d cycles at epoch 500", len(samples), total)
	}
	if res.Tel.LastCycle() != total {
		t.Errorf("series ends at %d, want %d", res.Tel.LastCycle(), total)
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].Cycle <= samples[i-1].Cycle {
			t.Fatalf("series not monotonic at %d", i)
		}
	}

	sum := res.Tel.Summarize()
	if sum.LinkFlits[packet.Request] == 0 || sum.LinkFlits[packet.Reply] == 0 {
		t.Fatal("link probes saw no traffic")
	}
	if sum.ReplyRequestRatio() <= 1 {
		t.Errorf("reply:request = %.2f, want > 1 (read replies are 5 flits to 1)",
			sum.ReplyRequestRatio())
	}
	if sum.InjectedFlits == 0 || sum.EjectedFlits == 0 {
		t.Error("injection/ejection probes saw no traffic")
	}

	// The latency decomposition must have observed reads, and each reply's
	// four segments sum to its end-to-end latency, so counts agree.
	var readSegs int
	for _, ls := range sum.Latency {
		if ls.Kind == "read" {
			readSegs++
			if ls.Count == 0 || ls.Mean <= 0 {
				t.Errorf("read %s: count=%d mean=%.1f", ls.Segment, ls.Count, ls.Mean)
			}
		}
	}
	if readSegs != int(telemetry.NumSegments) {
		t.Errorf("read decomposition has %d segments, want %d", readSegs, int(telemetry.NumSegments))
	}
}

func TestAttachTelemetryTwicePanics(t *testing.T) {
	sim, err := New(quickCfg(), mustProfile(t, "KMN"))
	if err != nil {
		t.Fatal(err)
	}
	sim.attachTelemetry(100)
	defer func() {
		if recover() == nil {
			t.Fatal("second attachTelemetry did not panic")
		}
	}()
	sim.attachTelemetry(100)
}

func TestInstrumentedDualSubnets(t *testing.T) {
	cfg := quickCfg()
	cfg.NoC.PhysicalSubnets = true
	res, err := Run(context.Background(), cfg, "BFS", Instrumentation{TelemetryEpoch: 1000})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.Tel.Summarize()
	if sum.LinkFlits[packet.Request] == 0 || sum.LinkFlits[packet.Reply] == 0 {
		t.Fatal("dual-subnet probes saw no traffic")
	}
	// Class separation is physical: the request subnet's reply counters must
	// all be zero and vice versa.
	values := res.Tel.Reg.Snapshot()
	for i, name := range res.Tel.Reg.ScalarNames() {
		wrong := len(name) > 4 && ((name[:4] == "req." && hasSuffix(name, ".reply.flits")) ||
			(name[:4] == "rep." && hasSuffix(name, ".request.flits")))
		if wrong && values[i] != 0 {
			t.Errorf("misclassed traffic on %s = %d", name, values[i])
		}
	}
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

func mustProfile(t *testing.T, name string) workload.Profile {
	t.Helper()
	prof, err := workload.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return prof
}
