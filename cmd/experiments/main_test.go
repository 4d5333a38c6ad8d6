package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current build")

// golden runs the command, requires exit 0 and compares stdout with
// testdata/name, rewriting that file first under -update. It returns stdout
// and stderr.
func golden(t *testing.T, name string, args ...string) (stdout, stderr []byte) {
	t.Helper()
	var out, errOut bytes.Buffer
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("experiments %v exited %d: %s", args, code, errOut.String())
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from %s:\n--- got\n%s--- want\n%s", path, out.Bytes(), want)
	}
	return out.Bytes(), errOut.Bytes()
}

// TestGoldenFig2Fig3 pins the JSON the CLI prints for the two traffic
// figures at reduced scale, and that Fig. 3 — the same runs as Fig. 2, read
// differently — simulates nothing and says so on stderr.
func TestGoldenFig2Fig3(t *testing.T) {
	args := []string{"-run", "fig2,fig3", "-benchmarks", "KMN,RAY", "-warmup", "200", "-cycles", "800", "-format", "json"}
	want, stderr := golden(t, "fig2_fig3.golden", args...)
	// Fig. 2's own line depends on what ran earlier in the process (go test
	// -count=2 reuses the first pass); Fig. 3's does not.
	if got := string(stderr); !strings.HasPrefix(got, "fig2: 2 results, ") || !strings.HasSuffix(got, "\nfig3: 2 results, 2 reused\n") {
		t.Errorf("stderr = %q; want one line per figure, fig3 reusing both of its results", got)
	}

	// Benchmark names are trimmed like experiment ids.
	args[3] = " KMN, RAY "
	var stdout bytes.Buffer
	if code := run(args, &stdout, io.Discard); code != 0 || !bytes.Equal(stdout.Bytes(), want) {
		t.Errorf("-benchmarks %q exited %d with output\n%s--- want that of KMN,RAY\n%s", args[3], code, stdout.Bytes(), want)
	}
}

// TestGoldenProbeFig2 pins the text table of Figure 2 re-derived from the
// telemetry link probes at reduced scale. Its runs go around the result
// memo, so it reports no "results, reused" line.
func TestGoldenProbeFig2(t *testing.T) {
	_, stderr := golden(t, "probefig2.golden", "-run", "probefig2", "-benchmarks", "KMN,RAY", "-warmup", "200", "-cycles", "800")
	if len(stderr) != 0 {
		t.Errorf("stderr = %q; want none", stderr)
	}
}

// TestGoldenHops pins Table 1's exact average hops across mesh sizes, N x N
// meshes with N MCs for N = 4, 8, 12, 16.
func TestGoldenHops(t *testing.T) {
	golden(t, "hops.golden", "-run", "hops")
}

// TestList: -list names the traffic and hop-count runners, one id per line.
func TestList(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("experiments -list exited %d: %s", code, stderr.String())
	}
	listed := map[string]bool{}
	for _, line := range strings.Split(stdout.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 {
			listed[f[0]] = true
		}
	}
	for _, id := range []string{"fig2", "fig3", "probefig2", "table1", "hops"} {
		if !listed[id] {
			t.Errorf("-list does not name %s:\n%s", id, stdout.String())
		}
	}
}

// TestGoldenUsageErrors: a command line that cannot mean anything is refused
// before any experiment runs, naming the flag at fault.
func TestGoldenUsageErrors(t *testing.T) {
	for name, tc := range map[string]struct {
		args []string
		code int
		want string
	}{
		"trailing comma":  {[]string{"-run", "fig2", "-benchmarks", "KMN,"}, 2, "-benchmarks \"KMN,\": empty benchmark name"},
		"only spaces":     {[]string{"-run", "fig2", "-benchmarks", " "}, 2, "-benchmarks"},
		"unknown flag":    {[]string{"-bench", "KMN"}, 2, "flag provided but not defined"},
		"config file":     {[]string{"-config", "/nonexistent.json", "-run", "fig2"}, 2, "-config /nonexistent.json: this command layers flags over its own base configurations"},
		"unknown format":  {[]string{"-format", "xml"}, 1, "unknown -format"},
		"unknown figure":  {[]string{"-run", "fig99"}, 1, "unknown experiment \"fig99\""},
		"unknown program": {[]string{"-run", "fig2", "-benchmarks", "KMN,NOPE", "-cycles", "100"}, 1, "NOPE"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(tc.args, &stdout, &stderr); code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%s: experiments %v exited %d with stderr %q; want %d and %q", name, tc.args, code, stderr.String(), tc.code, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: wrote to stdout: %s", name, stdout.String())
		}
	}
}
