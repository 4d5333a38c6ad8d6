package sweep

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
)

// telRun is a RunFunc producing an instrumented result without simulating:
// a tiny mesh with one link counter bumped and a flushed epoch series.
func telRun(ctx context.Context, j Job) (gpu.Result, error) {
	m := mesh.New(2, 2)
	tel := telemetry.New(10)
	sp := newSpine(m)
	telemetry.NewNetProbes(tel.Reg, m, "", sp)
	sp.Link[packet.Request][m.LinkIndex(mesh.Link{From: 0, Dir: mesh.East})] = 3
	tel.Flush(20)
	return gpu.Result{Benchmark: j.Benchmark, IPC: 1, Net: stats.NewNet(m), Tel: tel}, nil
}

func TestRunWritesTelemetryArtifacts(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:3]
	dir := filepath.Join(t.TempDir(), "tel")
	outs, err := Run(context.Background(), jobs, nil, Options{
		Workers: 2, Run: telRun, TraceDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(jobs) {
		t.Fatalf("%d outcomes", len(outs))
	}
	for _, j := range jobs {
		fp := j.Fingerprint()
		f, err := os.Open(filepath.Join(dir, fp, "series.jsonl"))
		if err != nil {
			t.Fatalf("missing series artifact: %v", err)
		}
		ex, err := telemetry.ReadTrace(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", fp, err)
		}
		if len(ex.Samples) == 0 {
			t.Errorf("%s: empty series", fp)
		}
		for _, name := range []string{"trace.json", "heatmap.csv"} {
			if _, err := os.Stat(filepath.Join(dir, fp, name)); err != nil {
				t.Errorf("missing trace artifact: %v", err)
			}
		}
	}
}

// TestRunTelemetrySkipKeepsArtifacts checks resumability: a resumed sweep
// runs only the jobs with no ok record, so a completed job's artifacts are
// left as they were and the re-run job gets its own.
func TestRunTelemetrySkipKeepsArtifacts(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:2]
	dir := t.TempDir()
	out := filepath.Join(dir, "out.jsonl")
	sink, err := OpenJSONL(out)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), jobs[:1], sink, Options{Run: telRun, TraceDir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, jobs[0].Fingerprint(), "series.jsonl")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	done, err := CompletedFingerprints(out)
	if err != nil {
		t.Fatal(err)
	}
	var todo []Job
	for _, j := range jobs {
		if !done[j.Fingerprint()] {
			todo = append(todo, j)
		}
	}
	ran := 0
	counting := func(ctx context.Context, j Job) (gpu.Result, error) {
		ran++
		return telRun(ctx, j)
	}
	if _, err := Run(context.Background(), todo, nil, Options{
		Workers: 1, Run: counting, TraceDir: dir,
	}); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("resume ran %d jobs, want 1", ran)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) || after.Size() != before.Size() {
		t.Error("resume rewrote a completed job's artifact")
	}
	if _, err := os.Stat(filepath.Join(dir, jobs[1].Fingerprint(), "series.jsonl")); err != nil {
		t.Errorf("the re-run job has no artifact: %v", err)
	}
}

func TestRunTelemetryWriteErrorAbortsSweep(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:2]
	// A regular file where the artifact directory should be makes every
	// artifact write fail, which must abort the sweep like a sink error.
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), jobs, nil, Options{
		Workers: 1, Run: telRun, TraceDir: blocker,
	}); err == nil {
		t.Fatal("artifact write failure did not abort the sweep")
	}
}

// newSpine returns zeroed spine slots for m, stall tallies included: what a
// network would own and count into.
func newSpine(m mesh.Mesh) telemetry.Spine {
	sp := telemetry.Spine{Inj: make([]int64, m.NumNodes()), Ej: make([]int64, m.NumNodes()),
		Stall: new([telemetry.NumStallCauses]int64)}
	for c := range sp.Link {
		sp.Link[c] = make([]int64, m.NumLinkSlots())
	}
	return sp
}
