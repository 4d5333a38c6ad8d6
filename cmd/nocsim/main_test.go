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

// TestGoldenKMN pins the report of a short Table 2 run of KMN, byte for
// byte.
func TestGoldenKMN(t *testing.T) {
	path := filepath.Join("testdata", "kmn.golden")
	args := []string{"-bench", "KMN", "-warmup", "100", "-cycles", "400"}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("nocsim %v exited %d: %s", args, code, stderr.String())
	}
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
		"sample rate above 1":    {[]string{"-obs-sample-rate", "2"}, 1, "obs sample rate 2 outside (0, 1]"},
		"stray argument":         {[]string{"-bench", "KMN", "-cycles", "200", "stray", "-bench", "RAY"}, 2, "unexpected argument \"stray\""},
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
