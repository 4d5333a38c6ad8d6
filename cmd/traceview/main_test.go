package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current build")

// runOK runs traceview with args, requires a clean exit, and returns stdout.
func runOK(t *testing.T, args ...string) []byte {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("traceview %v exited %d: %s", args, code, stderr.String())
	}
	if stderr.Len() != 0 {
		t.Errorf("traceview %v wrote to stderr: %s", args, stderr.String())
	}
	return stdout.Bytes()
}

// checkGolden pins got to testdata/name.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
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
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}

func TestSpansOutput(t *testing.T) {
	checkGolden(t, "spans.golden", runOK(t, "testdata/series.jsonl"))
	checkGolden(t, "spans_n2.golden", runOK(t, "-n", "2", "testdata/series.jsonl"))
}

// TestNoSampledPackets: a series.jsonl with no packet records, as `sweep
// -trace` writes one per job, is read and reported as holding no sampled
// packets, with no table.
func TestNoSampledPackets(t *testing.T) {
	path := filepath.Join(t.TempDir(), "series.jsonl")
	series := `{"type":"header","epoch":100,"names":["net.flits"],"kinds":["counter"],"cycle":0}` + "\n" +
		`{"type":"sample","cycle":100,"values":[42]}` + "\n"
	if err := os.WriteFile(path, []byte(series), 0o644); err != nil {
		t.Fatal(err)
	}
	out := string(runOK(t, path))
	if !strings.HasPrefix(out, "no sampled packets in this trace") || strings.Count(out, "\n") != 1 {
		t.Errorf("traceview on a trace without packets printed:\n%s", out)
	}
}

// TestUsageAndInputErrors: traceview reads a trace's series.jsonl only, so
// the retired mode selectors are unknown flags.
func TestUsageAndInputErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		code int
		want string
	}{
		"no file":          {nil, 2, "usage:"},
		"two files":        {[]string{"testdata/series.jsonl", "testdata/series.jsonl"}, 2, "usage:"},
		"unknown flag":     {[]string{"-trace", "x.csv"}, 2, "flag provided but not defined"},
		"retired timeline": {[]string{"-timeline", "testdata/series.jsonl"}, 2, "flag provided but not defined: -timeline"},
		"retired selector": {[]string{"-spans", "testdata/series.jsonl"}, 2, "flag provided but not defined: -spans"},
		"missing file":     {[]string{"testdata/absent.jsonl"}, 1, "absent.jsonl"},
		"not a trace":      {[]string{"testdata/spans.golden"}, 1, "series line 1"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code {
			t.Errorf("%s: exit %d, want %d (stderr %q)", name, code, tc.code, stderr.String())
		}
		if !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: stderr %q does not mention %q", name, stderr.String(), tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote to stdout: %s", name, stdout.String())
		}
	}
}
