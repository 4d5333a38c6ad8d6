// Command sweep runs a design-space sweep: a grid of independent
// simulations defined by a JSON spec file or by flags, executed on a
// bounded worker pool with per-job timeouts and panic isolation, streaming
// one JSONL record per job so partial results are usable and re-runs
// resume where they left off.
//
// Beyond the default single-process mode, the same binary is the
// distributed sweep fabric (internal/fabric): `-serve` runs the shared
// coordinator — expanding submitted specs, leasing jobs to workers, and
// caching every result in a content-addressed store so identical
// configurations are never simulated twice — and `-connect` runs a worker
// against it.
//
// Examples:
//
//	sweep -spec examples/sweepspec.json -out results.jsonl
//	sweep -benchmarks KMN,BFS -routings xy,yx -vcpolicies split,monopolized -seeds 1,2
//	sweep -spec examples/sweepspec.json -out results.jsonl            # re-run: resumes
//	sweep -spec examples/sweepspec.json -dry-run                      # list the grid
//
//	sweep -serve 127.0.0.1:9178 -spec examples/sweepspec.json         # coordinator
//	sweep -connect http://127.0.0.1:9178                              # worker (run several)
//	curl http://127.0.0.1:9178/sweeps/<id>/results                    # results, fixed order
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
	"gpgpunoc/internal/fabric"
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

		flightN   = fs.Int("flight-recorder", 4096, "flight-recorder ring size in events (0 = off); dumps recent cycle-domain events as JSONL on panic, invariant failure, or watchdog trip")
		flightDir = fs.String("flight-dir", "", "directory for flight-recorder post-mortem dumps (default: <out>.flight)")

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
	fab := config.BindFabricFlags(fs)
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
	if err := fab.Validate(); err != nil {
		return fail(err)
	}
	switch {
	case *telEpoch > 0 && fab.Mode() == "connect":
		return fail(fmt.Errorf("sweep: -telemetry-epoch is refused in worker mode: its artifacts would be stranded on the worker"))
	case *telDir != "" && *telEpoch == 0:
		return fail(fmt.Errorf("sweep: -telemetry-dir needs -telemetry-epoch"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// The instruments compose into one value: sanitizer, telemetry, and the
	// flight recorder all thread through gpu.Instrumentation, and every mode
	// that simulates runs jobs through the same runner. A worker keeps the
	// flight recorder: dumps are per-process and land on the worker's own
	// disk, where its crash is diagnosed.
	fdir := *flightDir
	if fdir == "" {
		fdir = *out + ".flight"
	}
	runner := sweep.SimulateWith(gpu.Instrumentation{
		SanitizeEvery:  *sanitize,
		TelemetryEpoch: *telEpoch,
		FlightRecorder: *flightN,
		FlightDir:      fdir,
	})
	telemetryDir := *telDir
	if *telEpoch > 0 && telemetryDir == "" {
		telemetryDir = *out + ".telemetry"
	}

	switch fab.Mode() {
	case "serve":
		if err := runServe(ctx, fab, *specFile, *out, stdout, stderr); err != nil {
			return fail(err)
		}
		return 0
	case "connect":
		if err := runWorker(ctx, fab, runner, *jobsN, *timeout, stderr); err != nil && ctx.Err() == nil {
			return fail(err)
		}
		return 0
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
	opts.Run = runner

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

// runServe runs the fabric coordinator: open the content-addressed store,
// serve the submit/lease/results API, optionally submit an initial spec,
// and hold until interrupted.
func runServe(ctx context.Context, fab *config.Fabric, specFile, out string, stdout, stderr io.Writer) error {
	storeDir := fab.StoreDir
	if storeDir == "" {
		storeDir = out + ".store"
	}
	store, err := fabric.OpenStore(storeDir)
	if err != nil {
		return err
	}
	co := fabric.NewCoordinator(store, fabric.Options{
		LeaseTTL:    fab.LeaseTTL,
		LeaseJobs:   fab.LeaseJobs,
		MaxAttempts: fab.MaxAttempts,
		Logf:        logTo(stderr),
	})
	srv, err := fabric.NewServer(fab.Serve, co)
	if err != nil {
		return err
	}
	defer srv.Close()
	fmt.Fprintf(stderr, "coordinator: http://%s/{submit,sweeps,results,workers,metrics,progress,healthz}\n", srv.Addr())
	fmt.Fprintf(stderr, "store: %s (%d cached results)\n", storeDir, store.Len())

	if specFile != "" {
		spec, err := sweep.ReadSpec(specFile)
		if err != nil {
			return err
		}
		resp, err := co.Submit(spec)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "sweep %s: %d jobs (%d cached, %d pending, %d skipped)\n",
			resp.SweepID, resp.Total, resp.Cached, resp.Pending, resp.Skipped)
		fmt.Fprintf(stdout, "results: http://%s/sweeps/%s/results\n", srv.Addr(), resp.SweepID)
	}

	<-ctx.Done()
	fmt.Fprintln(stderr, "coordinator: shutting down")
	return nil
}

// runWorker runs the fabric worker loop against a coordinator until
// interrupted.
func runWorker(ctx context.Context, fab *config.Fabric, runner sweep.RunFunc, jobs int, timeout time.Duration, stderr io.Writer) error {
	name, _ := os.Hostname()
	name = fmt.Sprintf("%s/%d", name, os.Getpid())
	w := fabric.NewWorker(fab.Connect, fabric.WorkerOptions{
		Name:    name,
		Run:     runner,
		Jobs:    jobs,
		Timeout: timeout,
		Logf:    logTo(stderr),
	})
	fmt.Fprintf(stderr, "worker %s: connecting to %s\n", name, fab.Connect)
	return w.Run(ctx)
}

// logTo adapts w to the fabric's line logger.
func logTo(w io.Writer) func(format string, args ...any) {
	return func(format string, args ...any) { fmt.Fprintf(w, format+"\n", args...) }
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
