// Observability-equivalence suite: span tracing and live exposition must be
// pure observers. Attaching spans at rate 0 must leave every simulation
// result bit-identical to a run without spans; at rate 1 the per-packet
// span decomposition must agree exactly with the telemetry latency
// histograms, which compute the same four segments from packet timestamps
// through a completely different path; and the HTTP endpoints must render
// consistent views while the simulation is running without changing it
// (exercised under `go test -race`).
package gpgpunoc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/obs"
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

// TestObsEndpointsMidRun polls /metrics, /state and /progress from a
// separate goroutine while the simulation runs. The stepping goroutine
// answers each scrape at a cycle boundary: under -race this proves the
// hand-off is sound, every /state snapshot must pass the flit-conservation
// check — a torn read of the kernel would fail it — and the scraped run must
// end exactly where an unscraped run of the same configuration does.
func TestObsEndpointsMidRun(t *testing.T) {
	cfg := obsCfg()
	cfg.MeasureCycles = 20000 // long enough for many polls
	srv, err := obs.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sim := newSim(t, cfg, "KMN", gpu.Instrumentation{Obs: srv})
	base := "http://" + srv.Addr()

	done := make(chan gpu.Result, 1)
	go func() {
		res, err := sim.RunContext(context.Background())
		if err != nil {
			t.Error(err)
		}
		done <- res
	}()

	fetch := func(ep string) (int, []byte) {
		resp, err := http.Get(base + ep)
		if err != nil {
			t.Errorf("GET %s: %v", ep, err)
			return 0, nil
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}

	polls, stateChecks := 0, 0
	var sawMidRun bool
	for {
		select {
		case res := <-done:
			if polls == 0 {
				t.Fatal("simulation finished before a single poll")
			}
			if !sawMidRun {
				t.Fatal("no /state scrape was answered mid-run")
			}
			if res.Deadlocked {
				t.Fatal("run deadlocked")
			}
			// After the run the endpoints serve its end-of-run render.
			if code, body := fetch("/progress"); code != http.StatusOK || !strings.Contains(string(body), `"phase":"done"`) {
				t.Fatalf("final /progress = %d %s", code, body)
			}
			if stateChecks == 0 {
				t.Fatal("no /state snapshot was conservation-checked")
			}
			plain := runSim(t, newSim(t, cfg, "KMN", gpu.Instrumentation{}))
			if plain.IPC != res.IPC || !reflect.DeepEqual(plain.Net, res.Net) {
				t.Errorf("scraping changed the run: IPC %v, unscraped %v (or stats.Net differs)", res.IPC, plain.IPC)
			}
			return
		default:
		}
		polls++
		if code, body := fetch("/metrics"); code != http.StatusOK || !strings.Contains(string(body), "noc_") {
			t.Fatalf("/metrics = %d %q...", code, truncate(body, 80))
		}
		code, body := fetch("/state")
		if code != http.StatusOK {
			t.Fatalf("/state = %d", code)
		}
		var st obs.MeshState
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatalf("/state is not a MeshState: %v", err)
		}
		if err := st.CheckConservation(); err != nil {
			t.Fatalf("mid-run /state snapshot inconsistent: %v", err)
		}
		stateChecks++
		if st.Cycle > 0 && st.Cycle < int64(cfg.WarmupCycles+cfg.MeasureCycles) {
			sawMidRun = true
		}
		if code, body := fetch("/progress"); code != http.StatusOK || !strings.Contains(string(body), `"cycle"`) {
			t.Fatalf("/progress = %d %q...", code, truncate(body, 80))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestObsScrapeNeverStepped: a scrape of a simulator that is built but never
// stepped waits for a cycle boundary that does not come, and ends when its
// client stops waiting instead of hanging.
func TestObsScrapeNeverStepped(t *testing.T) {
	srv, err := obs.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	newSim(t, obsCfg(), "KMN", gpu.Instrumentation{Obs: srv})
	client := &http.Client{Timeout: 100 * time.Millisecond}
	start := time.Now()
	resp, err := client.Get("http://" + srv.Addr() + "/state")
	if err == nil {
		resp.Body.Close()
		t.Fatalf("scrape of a never-stepped simulator answered %d", resp.StatusCode)
	}
	if waited := time.Since(start); waited > 5*time.Second {
		t.Fatalf("scrape returned after %v, not at the client's 100 ms timeout", waited)
	}
	// The handler gives up too: no goroutine stays parked in the hand-off.
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(2 * time.Second); bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("(*RunViews).Render")); {
		if time.Now().After(deadline) {
			t.Fatal("the scrape's handler still waits for a cycle boundary after its client left")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func truncate(b []byte, n int) string {
	if len(b) <= n {
		return string(b)
	}
	return string(b[:n]) + "..."
}
