// Golden pins for the fleet's exposition surfaces: the coordinator's and a
// worker's /metrics bodies and the Chrome-trace form of a sweep timeline,
// from one in-process coordinator + worker pass. Wall-clock values are
// zeroed before comparison; everything else — families, TYPE lines, label
// sets, counts, event shapes and order — is pinned byte for byte.
//
// Regenerate (only when a format change is intended) with
//
//	go test ./internal/fabric -run TestGoldenFleetExposition -update

package fabric

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current build")

var (
	wallMetric = regexp.MustCompile(`(?m)^(fleet_worker_heartbeat_age_ms\{[^}]*\}|fleet_jobs_per_second) \S+$`)
	wallTrace  = regexp.MustCompile(`"(ts|dur)":\d+`)
)

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from golden:\n--- got\n%s\n--- want\n%s", name, got, want)
	}
}

// fleetPass runs one sweep of four jobs through an in-process coordinator
// and a single worker, and returns the coordinator's /metrics, the worker's
// /metrics, and the sweep's Chrome-trace timeline as served over HTTP.
func fleetPass(t *testing.T) (coord, worker, trace string) {
	t.Helper()
	// One lease holds all four jobs and outlives the pass without renewal,
	// so every counter has exactly one possible final value.
	co, srv := newTestFabric(t, Options{LeaseTTL: time.Minute, LeaseJobs: 4})
	base := "http://" + srv.Addr()

	sub, err := co.Submit(specSeeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Every span kind must last at least a millisecond, or the trace would
	// flip between complete and instant events with scheduling noise.
	time.Sleep(20 * time.Millisecond)

	obsAddr := make(chan string, 1)
	w := NewWorker(base, WorkerOptions{
		Name: "golden", Jobs: 1, Poll: 10 * time.Millisecond, ObsAddr: "127.0.0.1:0",
		Run: func(_ context.Context, j sweep.Job) (gpu.Result, error) {
			time.Sleep(20 * time.Millisecond)
			return gpu.Result{Benchmark: j.Benchmark, IPC: 1}, nil
		},
		Logf: func(format string, args ...any) {
			if strings.HasPrefix(format, "fabric: worker obs on http://%s") {
				obsAddr <- args[0].(string)
			}
		},
	})
	stop := startWorker(context.Background(), w)
	defer stop()
	waitFinished(t, co, sub.SweepID, 30*time.Second)

	// The worker publishes its last exposition after the coordinator has
	// accepted the batch; wait for that one.
	var workerURL string
	select {
	case addr := <-obsAddr:
		workerURL = "http://" + addr + "/metrics"
	case <-time.After(10 * time.Second):
		t.Fatal("worker never logged its obs address")
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		worker = scrape(workerURL)
		if strings.Contains(worker, "\nfleet_batches_total 1\n") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker never published its completed batch:\n%s", worker)
		}
	}
	return scrape(base + "/metrics"), worker, scrape(base + "/sweeps/" + sub.SweepID + "/timeline?format=chrome")
}

func TestGoldenFleetExposition(t *testing.T) {
	coord, worker, trace := fleetPass(t)
	checkGolden(t, "worker.metrics.prom", []byte(worker))
	checkGolden(t, "coordinator.metrics.prom", wallMetric.ReplaceAll([]byte(coord), []byte("$1 0")))
	checkGolden(t, "timeline.chrome.json", wallTrace.ReplaceAll([]byte(trace), []byte(`"$1":0`)))
}

// TestFleetHelpText checks that every family of the real coordinator and
// worker registries describes itself: none may fall back to a generic
// "probe" description, and a family without a worker label is fleet-wide, so
// its help must not speak of "this worker".
func TestFleetHelpText(t *testing.T) {
	coord, worker, _ := fleetPass(t)
	generic := regexp.MustCompile(`(?i)^# HELP \S+ (fleet probe|probes? )`)
	for name, body := range map[string]string{"coordinator": coord, "worker": worker} {
		lines := strings.Split(body, "\n")
		for i, line := range lines {
			if !strings.HasPrefix(line, "# HELP ") {
				continue
			}
			if generic.MatchString(line) {
				t.Errorf("%s: generic fallback help: %s", name, line)
			}
			// HELP, TYPE, then the family's first sample.
			perWorker := i+2 < len(lines) && strings.Contains(lines[i+2], `{worker="`)
			if name == "coordinator" && !perWorker && strings.Contains(line, "this worker") {
				t.Errorf("coordinator: fleet-wide family described per worker: %s", line)
			}
		}
	}
}
