package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current build")

// checkGolden pins got to testdata/name, byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

// TestGoldenKMN pins the report of a short Table 2 run of KMN, byte for
// byte.
func TestGoldenKMN(t *testing.T) {
	args := []string{"-bench", "KMN", "-warmup", "100", "-cycles", "400"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("nocsim %v exited %d: %s", args, code, stderr.String())
	}
	checkGolden(t, "kmn.golden", stdout.Bytes())
}

// TestTraceKMN: -trace writes the run's three files and nothing else, and
// trace.json carries counter tracks ("C") and packet spans ("X") on one
// clock; a golden pins it.
func TestTraceKMN(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "kmn")
	args := []string{"-bench", "KMN", "-cycles", "2000", "-trace", dir}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("nocsim %v exited %d: %s", args, code, stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "trace: "+dir+"/{series.jsonl,trace.json,heatmap.csv}") {
		t.Errorf("report does not name the trace: %s", stdout.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if want := []string{"heatmap.csv", "series.jsonl", "trace.json"}; !slices.Equal(names, want) {
		t.Fatalf("-trace wrote %v, want %v", names, want)
	}
	trace, err := os.ReadFile(filepath.Join(dir, "trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []string{`"ph":"C"`, `"ph":"X"`} {
		if !bytes.Contains(trace, []byte(ph)) {
			t.Errorf("trace.json has no %s event", ph)
		}
	}
	checkGolden(t, "kmn_trace.golden", trace)
}

// TestUsageErrors: a command line that cannot mean anything is refused
// before anything is simulated, naming what is wrong.
func TestUsageErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		code int
		want string
	}{
		"retired publish period": {[]string{"-obs-publish", "500"}, 2, "flag provided but not defined: -obs-publish"},
		"retired live views":     {[]string{"-obs-addr", "127.0.0.1:0"}, 2, "flag provided but not defined: -obs-addr"},
		"retired lane kernel":    {[]string{"-workers", "2"}, 2, "flag provided but not defined: -workers"},
		// -trace, -trace-epoch and -trace-rate
		"retired telemetry epoch": {[]string{"-telemetry-epoch", "100"}, 2, "flag provided but not defined: -telemetry-epoch"},
		"retired telemetry out":   {[]string{"-telemetry-out", "x"}, 2, "flag provided but not defined: -telemetry-out"},
		"retired sample rate":     {[]string{"-obs-sample-rate", "1"}, 2, "flag provided but not defined: -obs-sample-rate"},
		"retired span log":        {[]string{"-spans", "x.jsonl"}, 2, "flag provided but not defined: -spans"},
		"retired span trace":      {[]string{"-span-trace", "x.json"}, 2, "flag provided but not defined: -span-trace"},
		"trace rate above 1":      {[]string{"-trace", "x", "-trace-rate", "2"}, 1, "trace rate 2 outside (0, 1]"},
		"trace epoch 0":           {[]string{"-trace", "x", "-trace-epoch", "0"}, 1, "trace epoch 0 cycles"},
		"rate without -trace":     {[]string{"-trace-rate", "1"}, 1, "-trace-rate needs -trace"},
		"stray argument":          {[]string{"-bench", "KMN", "-cycles", "200", "stray", "-bench", "RAY"}, 2, "unexpected argument \"stray\""},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: nocsim %v exited %d with stderr %q; want %d and %q", name, tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote to stdout: %s", name, stdout.String())
		}
	}
}

// TestProfilesOnErrorExit: once profiling has started, an exit through an
// error still writes both profiles — a failing run is when they are wanted.
func TestProfilesOnErrorExit(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu"), filepath.Join(dir, "mem")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-bench", "NOPE", "-cpuprofile", cpu, "-memprofile", mem}, &stdout, &stderr); code != 1 {
		t.Fatalf("unknown benchmark exited %d: %s", code, stderr.String())
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s not written: %v", p, err)
		}
	}
}
