// Command sweep runs a design-space sweep: the grid of independent
// simulations a JSON spec file declares (axes, filters and the base
// configuration under them), executed on a bounded worker pool with per-job
// timeouts and panic isolation, one JSONL record per job.
//
// The spec is the whole sweep: -spec is required, and no flag adds to or
// overrides it. Every run resumes from -out: it runs only the jobs with no
// ok record there, and prints one progress line per job to stderr (silence
// it with 2>/dev/null). Records reach -out in expansion order, the order
// -dry-run lists, so two result files of one spec diff cleanly at any
// -jobs. The cost of that order: a record that finishes before an earlier,
// slower job is held in memory until that job ends, so a crash loses it and
// the next run re-runs its job.
//
// With no instrument flag every job runs uninstrumented, so gpu.Run
// recycles its simulators. To debug a failed job, rerun the same command
// with -sanitize N -trace DIR: resume leaves out only ok records.
//
// Examples:
//
//	sweep -spec examples/sweepspec.json -out results.jsonl
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
	"runtime"
	"runtime/pprof"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
	"gpgpunoc/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so tests can pin
// what it prints. It returns the process exit code: 2 for flags it cannot
// parse, a missing -spec or a stray argument, 1 for a refused option or a
// setup or engine error. Failed jobs are data, not errors: they do not change
// the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		specFile = fs.String("spec", "", "JSON sweep spec file (required)")
		out      = fs.String("out", "sweep.jsonl", "JSONL results file (appended; jobs already ok in it are not run again)")
		jobsN    = fs.Int("jobs", 0, "concurrent jobs (default GOMAXPROCS)")
		timeout  = fs.Duration("timeout", 0, "per-job timeout, e.g. 30s (default none)")
		dryRun   = fs.Bool("dry-run", false, "print the expanded job list and exit")
		sanitize = fs.Int("sanitize", 0, "validate interconnect invariants every N cycles (0 = off)")

		trace      = fs.String("trace", "", "write each job's trace into <dir>/<fingerprint>/ (series.jsonl, trace.json, heatmap.csv)")
		traceEpoch = fs.Int64("trace-epoch", 1000, "with -trace: sample the probes every N cycles")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *specFile == "" {
		fmt.Fprintln(stderr, "sweep: -spec is required: the spec file declares the whole sweep (see examples/sweepspec.json)")
		return 2
	}
	// Parsing stops at the first argument that is not a flag, so every flag
	// after it would be dropped unseen.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "sweep: unexpected argument %q: flags go before it, and the spec file declares the rest\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	// With neither instrument set this is the zero Instrumentation, and
	// gpu.Run recycles a parked simulator for every job of a known shape.
	inst := gpu.Instrumentation{SanitizeEvery: *sanitize}
	if *trace != "" {
		if err := telemetry.ValidateEpoch(*traceEpoch); err != nil {
			return fail(err)
		}
		inst.TelemetryEpoch = *traceEpoch
	} else if isSet(fs, "trace-epoch") {
		return fail(fmt.Errorf("sweep: -trace-epoch needs -trace"))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	spec, err := sweep.ReadSpec(*specFile)
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

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	opts := sweep.Options{Workers: *jobsN, Timeout: *timeout, TraceDir: *trace, Run: sweep.SimulateWith(inst)}
	outs, err := resume(ctx, *out, jobs, opts, stderr)
	fmt.Fprintf(stdout, "results: %s (%d records this run)\n", *out, len(outs))
	// Profiles land on the failure path too: a failed sweep is exactly when
	// the profile is most wanted.
	if perr := stopProf(); err == nil {
		err = perr
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// resume runs the jobs that have no ok record in the results file out yet,
// appending their records to it in job order, and reports progress on
// stderr. It opens out with sweep.OpenJSONL, which drops a torn final line,
// and then reads it strictly, so corruption anywhere else fails the run.
func resume(ctx context.Context, out string, jobs []sweep.Job, opts sweep.Options, stderr io.Writer) ([]sweep.Outcome, error) {
	before, statErr := os.Stat(out)
	file, err := sweep.OpenJSONL(out)
	if err != nil {
		return nil, err
	}
	if after, err := os.Stat(out); statErr == nil && err == nil && after.Size() < before.Size() {
		fmt.Fprintf(stderr, "resume: dropped a torn final line (%d bytes) from %s\n", before.Size()-after.Size(), out)
	}
	done, err := sweep.CompletedFingerprints(out)
	if err != nil {
		file.Close()
		return nil, err
	}
	todo := make([]sweep.Job, 0, len(jobs))
	for _, j := range jobs {
		if !done[j.Fingerprint()] {
			todo = append(todo, j)
		}
	}
	fmt.Fprintf(stderr, "resume: %d of %d jobs already in %s\n", len(jobs)-len(todo), len(jobs), out)

	printer := sweep.NewPrinter(stderr, len(todo))
	opts.Progress = printer.Handle
	outs, err := sweep.Run(ctx, todo, file, opts)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	printer.Finish(sweep.Summarize(outs))
	return outs, err
}

// startProfiles starts a CPU profile into cpuPath, when set, and returns the
// function that stops it and writes an allocation profile into memPath, when
// set, after a GC so it shows what lives, not transient garbage. Call stop
// once, on every exit path that should produce profiles.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC()
		werr := pprof.Lookup("allocs").WriteTo(f, 0)
		if cerr := f.Close(); werr == nil {
			return cerr
		}
		return fmt.Errorf("mem profile: %w", werr)
	}, nil
}

// isSet reports whether the named flag was set on the command line.
func isSet(fs *flag.FlagSet, name string) (set bool) {
	fs.Visit(func(f *flag.Flag) { set = set || f.Name == name })
	return set
}
