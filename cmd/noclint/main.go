// Command noclint runs the repository's standard-library-only static
// analysis suite (internal/lint) over the module's production code. It
// guards the properties the reproduction depends on: bit-exact determinism
// (no wall clocks, no math/rand, no map iteration in simulation packages),
// seed provenance (every rng.Stream comes from rng.New/Split and stays
// goroutine-local), panic hygiene (package-prefixed messages or Must*
// constructors only), and the semantic safety contracts — lane ownership in
// the parallel kernel (laneowner) and frozen published buffers (publish).
//
// Usage:
//
//	noclint                               # analyze ./internal/... ./cmd/...
//	noclint ./internal/noc ./cmd/sweep    # analyze specific packages
//	noclint -analyzers determinism        # run a subset
//	noclint -format json                  # machine-readable report
//	noclint -format github                # GitHub Actions annotations
//	noclint -max-elapsed 90s              # fail if the run takes longer
//	noclint -list                         # describe the analyzers
//
// Exit status is 1 when any finding is reported, so it gates make check and
// CI. Suppressions are explicit: the allowlist in lint.DefaultConfig or a
// justified //noclint:<analyzer> <reason> directive at the site.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gpgpunoc/internal/lint"
)

func main() {
	var (
		names      = flag.String("analyzers", "", "comma-separated analyzer subset (default all)")
		format     = flag.String("format", "text", "output format: text, json, or github")
		list       = flag.Bool("list", false, "describe the analyzers and exit")
		root       = flag.String("C", ".", "module root directory")
		maxElapsed = flag.Duration("max-elapsed", 0, "fail if loading and analysis take longer (0 disables)")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *format != "text" && *format != "json" && *format != "github" {
		fatal(fmt.Errorf("noclint: unknown format %q (want text, json, or github)", *format))
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		fatal(err)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}

	start := time.Now()
	loader, err := lint.NewLoader(*root)
	if err != nil {
		fatal(err)
	}
	paths, err := loader.Expand(patterns...)
	if err != nil {
		fatal(err)
	}
	var pkgs []*lint.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			fatal(err)
		}
		pkgs = append(pkgs, pkg)
	}

	cfg := lint.DefaultConfig(mustAbs(*root))
	findings := lint.Run(pkgs, analyzers, cfg, loader.ModulePath())
	elapsed := time.Since(start)

	switch *format {
	case "json":
		if err := lint.WriteJSON(os.Stdout, findings); err != nil {
			fatal(err)
		}
	case "github":
		lint.WriteGitHub(os.Stdout, findings)
	default:
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	failed := false
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "noclint: %s in %d package(s)\n", lint.Summary(findings), len(pkgs))
		failed = true
	}
	// The timing guard keeps the lint gate honest: the suite typechecks the
	// module from source on every run, and a silent slowdown there would rot
	// the edit-check loop long before anyone profiled it.
	if *maxElapsed > 0 && elapsed > *maxElapsed {
		fmt.Fprintf(os.Stderr, "noclint: analysis took %s, over the -max-elapsed budget of %s\n",
			elapsed.Round(time.Millisecond), *maxElapsed)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}

func selectAnalyzers(names string) ([]*lint.Analyzer, error) {
	all := lint.Analyzers()
	if names == "" {
		return all, nil
	}
	var out []*lint.Analyzer
	for _, want := range strings.Split(names, ",") {
		want = strings.TrimSpace(want)
		found := false
		for _, a := range all {
			if a.Name == want {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("noclint: unknown analyzer %q", want)
		}
	}
	return out, nil
}

func mustAbs(dir string) string {
	abs, err := absPath(dir)
	if err != nil {
		fatal(err)
	}
	return abs
}

func absPath(dir string) (string, error) {
	if dir == "." {
		return os.Getwd()
	}
	return dir, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
