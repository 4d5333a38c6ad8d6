package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current build")

// smokeSpec is the four-job example spec.
var smokeSpec = filepath.Join("..", "..", "examples", "sweepspec_smoke.json")

// TestGoldenDryRun pins the job list -dry-run prints for the smoke spec:
// every fingerprint (the store and resume key) and key in expansion order,
// then the count. Nothing runs and nothing is written.
func TestGoldenDryRun(t *testing.T) {
	out := filepath.Join(t.TempDir(), "never.jsonl")
	args := []string{"-spec", smokeSpec, "-dry-run", "-out", out}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("sweep %v exited %d: %s", args, code, stderr.String())
	}
	path := filepath.Join("testdata", "dryrun_smoke.golden")
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, stdout.Bytes(), want)
	}
	if stderr.Len() != 0 {
		t.Errorf("-dry-run wrote to stderr: %s", stderr.String())
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-dry-run touched -out %s: %v", out, err)
	}
}

// TestUsageErrors: a command line that cannot mean anything is refused
// before any job starts, naming what is wrong. The retired fabric roles and
// flight-recorder flags are unknown flags: sweep runs in one process, and a
// failed job is rerun with -sanitize and -trace instead. The spec
// is the whole sweep, so a grid or configuration flag beside it is an
// unknown flag too, as are the retired -ordered, -resume and -quiet, whose
// one useful value is now always taken.
func TestUsageErrors(t *testing.T) {
	type usageCase struct {
		args []string
		code int
		want string
	}
	cases := map[string]usageCase{
		"unknown flag":        {[]string{"-worker-obs-addr", ":9"}, 2, "flag provided but not defined: -worker-obs-addr"},
		"heartbeat flag":      {[]string{"-heartbeat", "1s"}, 2, "flag provided but not defined: -heartbeat"},
		"retired live views":  {[]string{"-obs-addr", "127.0.0.1:0"}, 2, "flag provided but not defined: -obs-addr"},
		"retired coordinator": {[]string{"-serve", "127.0.0.1:0"}, 2, "flag provided but not defined: -serve"},
		"retired worker":      {[]string{"-connect", "http://127.0.0.1:1"}, 2, "flag provided but not defined: -connect"},
		"retired store":       {[]string{"-store", "x"}, 2, "flag provided but not defined: -store"},
		"retired recorder":    {[]string{"-flight-recorder", "0"}, 2, "flag provided but not defined: -flight-recorder"},
		"retired dump dir":    {[]string{"-flight-dir", "x"}, 2, "flag provided but not defined: -flight-dir"},
		// A dry run would exit 0 at once, so an ignored -trace-epoch shows.
		"trace epoch 0":        {[]string{"-spec", smokeSpec, "-dry-run", "-trace", "x", "-trace-epoch", "0"}, 1, "trace epoch 0"},
		"epoch without -trace": {[]string{"-spec", smokeSpec, "-dry-run", "-trace-epoch", "500"}, 1, "-trace-epoch needs -trace"},
		"no spec":              {[]string{"-dry-run"}, 2, "-spec"},
		"stray argument":       {[]string{"-spec", smokeSpec, "-dry-run", "extra", "-jobs", "4"}, 2, `unexpected argument "extra"`},
	}
	for _, f := range []struct{ name, value string }{
		// grid flags: a spec axis each, and skip_invalid
		{"benchmarks", "RAY"}, {"placements", "top"}, {"routings", "yx"}, {"vcpolicies", "shared"},
		{"vcs-grid", "4"}, {"depth-grid", "8"}, {"seeds", "3"}, {"skip-invalid", ""},
		// the base configuration: the spec's base, or its warmup and measure
		{"config", "x.json"}, {"placement", "top"}, {"routing", "yx"}, {"vcpolicy", "shared"},
		{"vcs", "4"}, {"depth", "8"}, {"reqvcs", "1"}, {"cycles", "99"}, {"warmup", "9"},
		{"seed", "3"}, {"dual", ""}, {"halfwidth", ""}, {"allow-unsafe", ""},
		// always on
		{"ordered", ""}, {"resume", ""}, {"quiet", ""},
		// -trace and -trace-epoch
		{"telemetry-epoch", "100"}, {"telemetry-dir", "x"},
	} {
		args := []string{"-spec", smokeSpec, "-dry-run", "-" + f.name}
		if f.value != "" {
			args = append(args, f.value)
		}
		cases["retired -"+f.name] = usageCase{args, 2, "flag provided but not defined: -" + f.name}
	}
	for name, tc := range cases {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: sweep %v exited %d with stderr %q; want %d and %q", name, tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote to stdout: %s", name, stdout.String())
		}
	}
}

// TestResultsFileIsExpansionOrdered: the results file is a function of the
// spec alone. At one worker and at four, the records land in -dry-run's
// order and their canonical forms (exec stripped) are byte-identical; a
// second run on the same -out resumes every job and appends nothing.
func TestResultsFileIsExpansionOrdered(t *testing.T) {
	var dry, dryErr bytes.Buffer
	if code := run([]string{"-spec", smokeSpec, "-dry-run"}, &dry, &dryErr); code != 0 {
		t.Fatalf("-dry-run exited %d: %s", code, dryErr.String())
	}
	lines := strings.Split(strings.TrimSuffix(dry.String(), "\n"), "\n")
	var want []string
	for _, l := range lines[:len(lines)-1] { // the last line is the count
		want = append(want, strings.Fields(l)[0])
	}
	var canon []string
	for _, n := range []string{"1", "4"} {
		out := filepath.Join(t.TempDir(), "results.jsonl")
		args := []string{"-spec", smokeSpec, "-jobs", n, "-out", out}
		for pass := 0; pass < 2; pass++ {
			var stdout, stderr bytes.Buffer
			if code := run(args, &stdout, &stderr); code != 0 {
				t.Fatalf("sweep %v (pass %d) exited %d: %s", args, pass, code, stderr.String())
			}
		}
		f, err := os.Open(out)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := sweep.ReadRecords(f)
		f.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(want) {
			t.Fatalf("-jobs %s: %d records after two runs, want %d (the second run must append nothing)", n, len(recs), len(want))
		}
		var b strings.Builder
		for i, r := range recs {
			if r.Fingerprint != want[i] {
				t.Errorf("-jobs %s: record %d is %s, -dry-run lists %s there", n, i, r.Fingerprint, want[i])
			}
			if r.Status != sweep.StatusOK {
				t.Errorf("-jobs %s: %s is %s: %s", n, r.Key, r.Status, r.Error)
			}
			line, err := json.Marshal(r.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			b.Write(append(line, '\n'))
		}
		canon = append(canon, b.String())
	}
	if canon[0] != canon[1] {
		t.Errorf("canonical results differ between -jobs 1 and -jobs 4:\n%s\n---\n%s", canon[0], canon[1])
	}
}

// TestResumeSinkWritesPastDoneJobs: on a resumed run whose first job is
// already done, each record reaches the results file as soon as every
// earlier job of this run has written, not when the run ends: when a job
// starts, the record of the one before it is on disk. A run that held a
// position for the done job would hold back the whole run, and a crash
// would lose all of it.
func TestResumeSinkWritesPastDoneJobs(t *testing.T) {
	spec, err := sweep.ReadSpec(smokeSpec)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "results.jsonl")
	first := sweep.NewRecord(jobs[0])
	first.Status = sweep.StatusOK
	line, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(out, append(line, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	written := func() []string {
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := sweep.ReadRecords(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		var keys []string
		for _, r := range recs {
			keys = append(keys, r.Key)
		}
		return keys
	}
	var ran []string
	run := func(_ context.Context, j sweep.Job) (gpu.Result, error) {
		if got, want := written(), append([]string{jobs[0].Key}, ran...); !slices.Equal(got, want) {
			t.Errorf("when %s starts the file holds %v, want %v", j.Key, got, want)
		}
		ran = append(ran, j.Key)
		return gpu.Result{Benchmark: j.Benchmark, IPC: 1}, nil
	}
	var stderr bytes.Buffer
	outs, err := resume(context.Background(), out, jobs, sweep.Options{Workers: 1, Run: run}, &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(jobs)-1 || len(ran) != len(jobs)-1 {
		t.Fatalf("the resumed run ran %v, want the %d jobs after the first", ran, len(jobs)-1)
	}
	if want := fmt.Sprintf("resume: 1 of %d jobs already in %s\n", len(jobs), out); !strings.HasPrefix(stderr.String(), want) {
		t.Errorf("stderr starts %q, want %q", stderr.String(), want)
	}
	if got := written(); len(got) != len(jobs) {
		t.Errorf("the file holds %v, want all %d jobs", got, len(jobs))
	}
}
