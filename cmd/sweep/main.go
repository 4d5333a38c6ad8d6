// Command sweep runs a design-space sweep: a grid of independent
// simulations defined by a JSON spec file or by flags, executed on a
// bounded worker pool with per-job timeouts and panic isolation, streaming
// one JSONL record per job so partial results are usable and re-runs
// resume where they left off.
//
// With no instrument flag every job runs uninstrumented, so gpu.Run
// recycles its simulators. To debug a failed job, rerun the same command
// with -sanitize N -telemetry-epoch E: resume skips only ok records.
//
// Examples:
//
//	sweep -spec examples/sweepspec.json -out results.jsonl
//	sweep -benchmarks KMN,BFS -routings xy,yx -vcpolicies split,monopolized -seeds 1,2
//	sweep -spec examples/sweepspec.json -out results.jsonl            # re-run: resumes
//	sweep -spec examples/sweepspec.json -dry-run                      # list the grid
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/profiling"
	"gpgpunoc/internal/sweep"
	"gpgpunoc/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so tests can pin
// what it prints. It returns the process exit code: 2 for flags it cannot
// parse, 1 for a refused option or a setup or engine error. Failed jobs are
// data, not errors: they do not change the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specFile = fs.String("spec", "", "JSON sweep spec file (grid flags are ignored when set)")
		out      = fs.String("out", "sweep.jsonl", "JSONL results file (appended)")
		jobsN    = fs.Int("jobs", 0, "concurrent jobs (default GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 0, "per-job timeout, e.g. 30s (default none)")
		resume   = fs.Bool("resume", true, "skip jobs whose fingerprint is already in -out")
		ordered  = fs.Bool("ordered", false, "write records in grid (expansion) order instead of completion order, so result files of the same spec diff cleanly")
		dryRun   = fs.Bool("dry-run", false, "print the expanded job list and exit")
		quiet    = fs.Bool("quiet", false, "suppress per-job progress lines")
		sanitize = fs.Int("sanitize", 0, "validate interconnect invariants every N cycles (0 = off)")

		telEpoch = fs.Int64("telemetry-epoch", 0, "sample cycle-domain telemetry every N cycles (0 = off)")
		telDir   = fs.String("telemetry-dir", "", "directory for per-job telemetry artifacts (default: <out>.telemetry)")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile to this file at exit")

		benchmarks = fs.String("benchmarks", "", "comma-separated benchmarks ("+strings.Join(workload.Names(), ",")+"); default all")
		placements = fs.String("placements", "", "comma-separated placement grid (default: base placement)")
		routings   = fs.String("routings", "", "comma-separated routing grid (default: base routing)")
		vcpolicies = fs.String("vcpolicies", "", "comma-separated VC policy grid (default: base policy)")
		vcsList    = fs.String("vcs-grid", "", "comma-separated VCs-per-port grid (default: base)")
		depthList  = fs.String("depth-grid", "", "comma-separated VC depth grid (default: base)")
		seeds      = fs.String("seeds", "", "comma-separated seed grid (default: base seed)")
		skipBad    = fs.Bool("skip-invalid", true, "drop grid points failing validation instead of erroring")
	)
	// The base configuration under the grid comes from the shared
	// flag→config API, so `-config file.json` or `-vcs 4` shapes every job.
	cf := config.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if err := config.ValidateTelemetryEpoch(*telEpoch); err != nil {
		return fail(err)
	}
	if *telDir != "" && *telEpoch == 0 {
		return fail(fmt.Errorf("sweep: -telemetry-dir needs -telemetry-epoch"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	telemetryDir := *telDir
	if *telEpoch > 0 && telemetryDir == "" {
		telemetryDir = *out + ".telemetry"
	}

	spec, err := buildSpec(*specFile, cf, gridFlags{
		benchmarks: *benchmarks, placements: *placements, routings: *routings,
		vcpolicies: *vcpolicies, vcs: *vcsList, depths: *depthList, seeds: *seeds,
		skipInvalid: *skipBad,
	})
	if err != nil {
		return fail(err)
	}

	jobs, skipped, err := spec.Expand()
	if err != nil {
		return fail(err)
	}
	for _, s := range skipped {
		fmt.Fprintf(stderr, "skip-invalid %s: %s\n", s.Key, s.Reason)
	}

	if *dryRun {
		for _, j := range jobs {
			fmt.Fprintf(stdout, "%s %s\n", j.Fingerprint(), j.Key)
		}
		fmt.Fprintf(stdout, "%d jobs (%d invalid grid points dropped)\n", len(jobs), len(skipped))
		return 0
	}

	done := map[string]bool{}
	if *resume {
		var warning string
		if done, warning, err = sweep.CompletedFingerprints(*out); err != nil {
			return fail(err)
		}
		if warning != "" {
			fmt.Fprintf(stderr, "sweep: resume from %s: %s\n", *out, warning)
		}
	}
	jsonl, err := sweep.OpenJSONL(*out)
	if err != nil {
		return fail(err)
	}
	var sink sweep.Sink = jsonl
	var orderedSink *sweep.Ordered
	if *ordered {
		orderedSink = sweep.NewOrdered(jsonl, jobs)
		sink = orderedSink
	}

	opts := sweep.Options{Workers: *jobsN, Timeout: *timeout, Done: done, TelemetryDir: telemetryDir}
	var printer *sweep.Printer
	if !*quiet {
		printer = sweep.NewPrinter(stderr, len(jobs))
		opts.Progress = printer.Handle
	}
	// With neither instrument set this is the zero Instrumentation, and
	// gpu.Run recycles a parked simulator for every job of a known shape.
	opts.Run = sweep.SimulateWith(gpu.Instrumentation{SanitizeEvery: *sanitize, TelemetryEpoch: *telEpoch})

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}

	start := time.Now()
	outs, runErr := sweep.Run(ctx, jobs, sink, opts)
	summary := sweep.Summarize(outs)
	if orderedSink != nil {
		if ferr := orderedSink.Flush(); ferr != nil && runErr == nil {
			runErr = ferr
		}
	}
	if cerr := jsonl.Close(); cerr != nil && runErr == nil {
		runErr = cerr
	}
	if printer != nil {
		printer.Finish(summary)
	} else {
		fmt.Fprintf(stderr, "sweep finished in %.1fs: %s\n", time.Since(start).Seconds(), summary)
	}
	fmt.Fprintf(stdout, "results: %s (%d records this run)\n", *out, summary.OK+summary.Failed)
	// Flush profiles before any exit: a failed sweep is exactly when the
	// profile is most wanted.
	if perr := stopProf(); perr != nil && runErr == nil {
		runErr = perr
	}
	if runErr != nil {
		return fail(runErr)
	}
	return 0
}

type gridFlags struct {
	benchmarks, placements, routings, vcpolicies, vcs, depths, seeds string
	skipInvalid                                                      bool
}

// buildSpec assembles the sweep spec from a file or from the grid flags
// layered over the shared base configuration.
func buildSpec(specFile string, cf *config.Flags, g gridFlags) (sweep.Spec, error) {
	if specFile != "" {
		return sweep.ReadSpec(specFile)
	}
	base, err := cf.Config()
	if err != nil {
		return sweep.Spec{}, err
	}
	spec := sweep.Spec{Base: &base, SkipInvalid: g.skipInvalid}
	spec.Benchmarks = splitList(g.benchmarks)
	for _, p := range splitList(g.placements) {
		spec.Placements = append(spec.Placements, config.Placement(p))
	}
	for _, r := range splitList(g.routings) {
		spec.Routings = append(spec.Routings, config.Routing(r))
	}
	for _, v := range splitList(g.vcpolicies) {
		spec.VCPolicies = append(spec.VCPolicies, config.VCPolicy(v))
	}
	if spec.VCsPerPort, err = splitInts(g.vcs); err != nil {
		return sweep.Spec{}, fmt.Errorf("-vcs-grid: %w", err)
	}
	if spec.VCDepths, err = splitInts(g.depths); err != nil {
		return sweep.Spec{}, fmt.Errorf("-depth-grid: %w", err)
	}
	for _, s := range splitList(g.seeds) {
		n, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return sweep.Spec{}, fmt.Errorf("-seeds: %w", err)
		}
		spec.Seeds = append(spec.Seeds, n)
	}
	return spec, nil
}

func splitList(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func splitInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitList(s) {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, n)
	}
	return out, nil
}
