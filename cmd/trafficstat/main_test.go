package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestBenchmarkList: a spaced -benchmarks list means what the unspaced one
// does, and an empty entry is refused by name before anything runs.
func TestBenchmarkList(t *testing.T) {
	args := func(list string) []string {
		return []string{"-benchmarks", list, "-warmup", "200", "-cycles", "800"}
	}
	var want, stderr bytes.Buffer
	if code := run(args("KMN,RAY"), &want, &stderr); code != 0 {
		t.Fatalf("trafficstat -benchmarks KMN,RAY exited %d: %s", code, stderr.String())
	}
	if !strings.Contains(want.String(), "KMN") || !strings.Contains(want.String(), "RAY") {
		t.Fatalf("output names neither benchmark:\n%s", want.String())
	}
	var got bytes.Buffer
	if code := run(args("KMN, RAY"), &got, &stderr); code != 0 || !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("-benchmarks \"KMN, RAY\" exited %d with output\n%s--- want that of KMN,RAY\n%s", code, got.String(), want.String())
	}

	got.Reset()
	stderr.Reset()
	if code := run(args("KMN,"), &got, &stderr); code != 2 || !strings.Contains(stderr.String(), `-benchmarks "KMN,": empty benchmark name`) {
		t.Errorf("-benchmarks \"KMN,\" exited %d with stderr %q; want 2 and the empty name refused", code, stderr.String())
	}
	if got.Len() != 0 {
		t.Errorf("-benchmarks \"KMN,\" wrote to stdout: %s", got.String())
	}
}

// TestConfigFileRefused: trafficstat layers its flags over the baseline and
// reads no configuration file, so -config is refused by name before
// anything runs instead of being silently ignored.
func TestConfigFileRefused(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-config", "/nonexistent.json", "-benchmarks", "KMN"}, &stdout, &stderr)
	if code != 2 || !strings.Contains(stderr.String(), "-config /nonexistent.json") || !strings.Contains(stderr.String(), "set the individual flags") {
		t.Errorf("-config exited %d with stderr %q; want 2, the flag named and the individual flags pointed to", code, stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("-config wrote to stdout: %s", stdout.String())
	}
}
