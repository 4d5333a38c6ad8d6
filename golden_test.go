// Golden pins for every artifact one instrumented run can produce. The files
// under testdata/golden were written by this test at the commit before the
// observability packages were collapsed onto one spine; any byte that moves
// is a change to a format users read.
//
// Regenerate (only when a format change is intended) with
//
//	go test . -run TestGoldenRunArtifacts -update
package gpgpunoc_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from the current build")

// goldenCfg is a 4x4 system — 6 SMs, 4 MCs on the bottom row — run for 500
// cycles: every probe family and span event kind appears, and the rate-1 span
// log stays small enough to commit.
func goldenCfg(dual bool) config.Config {
	cfg := config.Default()
	cfg.NoC.Width, cfg.NoC.Height = 4, 4
	cfg.Core.NumSMs = 6
	cfg.Mem.NumMCs = 4
	cfg.WarmupCycles = 100
	cfg.MeasureCycles = 400
	cfg.Seed = 7
	cfg.NoC.PhysicalSubnets = dual
	return cfg
}

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
		t.Errorf("%s: %d bytes, golden has %d; first difference at byte %d",
			name, len(got), len(want), firstDiff(got, want))
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestGoldenRunArtifacts runs each system on one lane and on four (the 4x4
// mesh's four rows) and holds both to the same files: spans keep the lanes
// on the stepping goroutine, which runs them lane by lane, so the span
// stream at four lanes is the event order of a multi-lane cycle.
func TestGoldenRunArtifacts(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		dual bool
	}{{"single", false}, {"dual", true}} {
		t.Run(tc.dir, func(t *testing.T) {
			for _, w := range []int{1, 4} {
				t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
					if *update && w != 1 {
						t.Skip("the goldens are written from the one-lane run")
					}
					cfg := goldenCfg(tc.dual)
					cfg.NoC.Workers = w
					goldenRun(t, tc.dir, cfg)
				})
			}
		})
	}
}

// goldenRun runs cfg with every instrument attached and checks each artifact
// against its golden under dir.
func goldenRun(t *testing.T, dir string, cfg config.Config) {
	t.Helper()
	sim := newSim(t, cfg, "KMN", gpu.Instrumentation{
		TelemetryEpoch: 100, Spans: true, SpanRate: 1,
	})
	res := runSim(t, sim)
	if res.Deadlocked {
		t.Fatal("golden run deadlocked")
	}

	render := func(name string, write func(io.Writer) error) {
		t.Helper()
		var b bytes.Buffer
		if err := write(&b); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, filepath.Join(dir, name), b.Bytes())
	}
	render("series.jsonl", res.Tel.WriteJSONL)
	render("heatmap.csv", func(w io.Writer) error {
		return res.Tel.WriteHeatmapCSV(w, mesh.New(cfg.NoC.Width, cfg.NoC.Height))
	})
	render("trace.json", func(w io.Writer) error {
		return res.Tel.WriteChromeTrace(w, telemetry.DefaultTraceFilter)
	})
	render("spans.jsonl", res.Spans.WriteJSONL)
	render("spans.trace.json", res.Spans.WriteChromeTrace)

	// The Prometheus exposition of the run's registry at its end.
	checkGolden(t, filepath.Join(dir, "metrics.prom"), res.Tel.Reg.RenderPrometheus())
}
