package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// TestList: -list describes exactly the suite's three analyzers, one a line.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("noclint -list exited %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	want := []string{"determinism", "seedflow", "paniclint"}
	if len(lines) != len(want) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(want), stdout.String())
	}
	for i, name := range want {
		if got, _, _ := strings.Cut(lines[i], " "); got != name {
			t.Errorf("-list line %d names %q, want %q", i, got, name)
		}
	}
}

// TestRefusedOptions: an analyzer outside the suite and an unknown format
// are refused by name before anything is loaded.
func TestRefusedOptions(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-analyzers", "laneowner"}, `unknown analyzer "laneowner"`},
		{[]string{"-format", "xml"}, `unknown format "xml"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(c.args, &stdout, &stderr); code != 1 || !strings.Contains(stderr.String(), c.want) {
			t.Errorf("noclint %v exited %d with stderr %q; want 1 and %q", c.args, code, stderr.String(), c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("noclint %v wrote to stdout: %s", c.args, stdout.String())
		}
	}
}

// TestRelativeRoot: a module root given as a relative -C applies the
// allowlist exactly as an absolute one does. internal/obs reads the wall
// clock in files the determinism allowlist exempts, so a root the allowlist
// fails to strip shows up as findings.
func TestRelativeRoot(t *testing.T) {
	abs, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{abs, "../.."} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-C", root, "./internal/obs"}, &stdout, &stderr); code != 0 || stdout.Len() != 0 {
			t.Errorf("noclint -C %s ./internal/obs exited %d:\n%s%s", root, code, stdout.String(), stderr.String())
		}
	}
}
