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
// failed job is rerun with -sanitize and -telemetry-epoch instead.
func TestUsageErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		code int
		want string
	}{
		"unknown flag":        {[]string{"-worker-obs-addr", ":9"}, 2, "flag provided but not defined: -worker-obs-addr"},
		"heartbeat flag":      {[]string{"-heartbeat", "1s"}, 2, "flag provided but not defined: -heartbeat"},
		"retired live views":  {[]string{"-obs-addr", "127.0.0.1:0"}, 2, "flag provided but not defined: -obs-addr"},
		"retired coordinator": {[]string{"-serve", "127.0.0.1:0"}, 2, "flag provided but not defined: -serve"},
		"retired worker":      {[]string{"-connect", "http://127.0.0.1:1"}, 2, "flag provided but not defined: -connect"},
		"retired store":       {[]string{"-store", "x"}, 2, "flag provided but not defined: -store"},
		"retired recorder":    {[]string{"-flight-recorder", "0"}, 2, "flag provided but not defined: -flight-recorder"},
		"retired dump dir":    {[]string{"-flight-dir", "x"}, 2, "flag provided but not defined: -flight-dir"},
		// A dry run would exit 0 at once, so an ignored -telemetry-dir shows.
		"telemetry dir without epoch": {[]string{"-spec", smokeSpec, "-dry-run", "-telemetry-dir", "x"}, 1, "-telemetry-dir"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: sweep %v exited %d with stderr %q; want %d and %q", name, tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote to stdout: %s", name, stdout.String())
		}
	}
}
