// Command noclint runs the repository's standard-library-only static
// analysis suite (internal/lint) over the module's production code. It
// guards the properties the reproduction depends on: bit-exact determinism
// (no wall clocks, no math/rand, no map iteration in simulation packages),
// seed provenance (every rng.Stream comes from rng.New/Split and stays
// goroutine-local) and panic hygiene (package-prefixed messages or Must*
// constructors only). Lane ownership in the parallel kernel is checked by
// the -race lane suites of internal/noc, not here.
//
// Usage:
//
//	noclint                               # analyze ./internal/... ./cmd/...
//	noclint ./internal/noc ./cmd/sweep    # analyze specific packages
//	noclint -C .. ./internal/obs          # module root given relative to the working directory
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
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gpgpunoc/internal/lint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so tests can pin
// what it prints. It returns the process exit code: 2 for flags it cannot
// parse, 1 for a refused option, a load error, any finding or a blown
// -max-elapsed budget.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("noclint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names      = fs.String("analyzers", "", "comma-separated analyzer subset (default all)")
		format     = fs.String("format", "text", "output format: text, json, or github")
		list       = fs.Bool("list", false, "describe the analyzers and exit")
		rootDir    = fs.String("C", ".", "module root directory")
		maxElapsed = fs.Duration("max-elapsed", 0, "fail if loading and analysis take longer (0 disables)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *format != "text" && *format != "json" && *format != "github" {
		return fail(fmt.Errorf("noclint: unknown format %q (want text, json, or github)", *format))
	}

	analyzers, err := selectAnalyzers(*names)
	if err != nil {
		return fail(err)
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./internal/...", "./cmd/..."}
	}

	// The loader names files by absolute path, so the allowlist's root must
	// be absolute too, or no module-relative fragment ever matches.
	root, err := filepath.Abs(*rootDir)
	if err != nil {
		return fail(err)
	}
	start := time.Now()
	loader, err := lint.NewLoader(root)
	if err != nil {
		return fail(err)
	}
	paths, err := loader.Expand(patterns...)
	if err != nil {
		return fail(err)
	}
	var pkgs []*lint.Package
	for _, p := range paths {
		pkg, err := loader.Load(p)
		if err != nil {
			return fail(err)
		}
		pkgs = append(pkgs, pkg)
	}

	findings := lint.Run(pkgs, analyzers, lint.DefaultConfig(root), loader.ModulePath())
	elapsed := time.Since(start)

	switch *format {
	case "json":
		if err := lint.WriteJSON(stdout, findings); err != nil {
			return fail(err)
		}
	case "github":
		lint.WriteGitHub(stdout, findings)
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}

	code := 0
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "noclint: %s in %d package(s)\n", lint.Summary(findings), len(pkgs))
		code = 1
	}
	// The timing guard keeps the lint gate honest: the suite typechecks the
	// module from source on every run, and a silent slowdown there would rot
	// the edit-check loop long before anyone profiled it.
	if *maxElapsed > 0 && elapsed > *maxElapsed {
		fmt.Fprintf(stderr, "noclint: analysis took %s, over the -max-elapsed budget of %s\n",
			elapsed.Round(time.Millisecond), *maxElapsed)
		code = 1
	}
	return code
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
