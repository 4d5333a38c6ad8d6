// Golden pins for the fleet's exposition surfaces: the coordinator's
// /metrics body and the Chrome-trace form of a sweep timeline, from one
// in-process coordinator + worker pass. Wall-clock values are
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
// and a single worker, and returns the coordinator's /metrics and the
// sweep's Chrome-trace timeline as served over HTTP.
func fleetPass(t *testing.T) (coord, trace string) {
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

	w := NewWorker(base, WorkerOptions{
		Name: "golden", Jobs: 1, Poll: 10 * time.Millisecond,
		Run: func(_ context.Context, j sweep.Job) (gpu.Result, error) {
			time.Sleep(20 * time.Millisecond)
			return gpu.Result{Benchmark: j.Benchmark, IPC: 1}, nil
		},
	})
	stop := startWorker(context.Background(), w)
	defer stop()
	waitFinished(t, co, sub.SweepID, 30*time.Second)
	return scrape(base + "/metrics"), scrape(base + "/sweeps/" + sub.SweepID + "/timeline?format=chrome")
}

func TestGoldenFleetExposition(t *testing.T) {
	coord, trace := fleetPass(t)
	checkGolden(t, "coordinator.metrics.prom", wallMetric.ReplaceAll([]byte(coord), []byte("$1 0")))
	checkGolden(t, "timeline.chrome.json", wallTrace.ReplaceAll([]byte(trace), []byte(`"$1":0`)))
}

// TestFleetHelpText checks that every family of the real coordinator
// registry describes itself: none may fall back to a generic "probe"
// description, and a family without a worker label is fleet-wide, so its
// help must not speak of "this worker".
func TestFleetHelpText(t *testing.T) {
	coord, _ := fleetPass(t)
	generic := regexp.MustCompile(`(?i)^# HELP \S+ (fleet probe|probes? )`)
	lines := strings.Split(coord, "\n")
	for i, line := range lines {
		if !strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if generic.MatchString(line) {
			t.Errorf("generic fallback help: %s", line)
		}
		// HELP, TYPE, then the family's first sample.
		perWorker := i+2 < len(lines) && strings.Contains(lines[i+2], `{worker="`)
		if !perWorker && strings.Contains(line, "this worker") {
			t.Errorf("fleet-wide family described per worker: %s", line)
		}
	}
}
