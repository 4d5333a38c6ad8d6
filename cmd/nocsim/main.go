// Command nocsim runs one full-GPU simulation and prints the headline
// metrics: IPC, cache behaviour, network throughput and latency.
//
// Examples:
//
//	nocsim -bench KMN
//	nocsim -bench BFS -placement diamond -routing xy -vcpolicy partial
//	nocsim -bench RAY -routing yx -vcpolicy monopolized -cycles 50000
//	nocsim -bench KMN -cycles 2000 -trace /tmp/kmn   # then: traceview /tmp/kmn/series.jsonl
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/workload"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so tests can pin
// what it prints. It returns the process exit code: 2 for flags it cannot
// parse or a run that protocol-deadlocked, 1 for a refused option, a setup
// or export error, or a run that ended in an error.
func run(args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("nocsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench    = fs.String("bench", "KMN", "benchmark name ("+strings.Join(workload.Names(), ",")+")")
		heatmap  = fs.Bool("heatmap", false, "print per-direction link utilization heatmaps")
		sanitize = fs.Int("sanitize", 0, "validate interconnect invariants every N cycles (0 = off)")

		trace      = fs.String("trace", "", "write the run's trace (series.jsonl, trace.json, heatmap.csv) into this directory")
		traceEpoch = fs.Int64("trace-epoch", 1000, "with -trace: sample the probes every N cycles")
		traceRate  = fs.Float64("trace-rate", 0.01, "with -trace: fraction of request packets traced end to end, in (0, 1]")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	// All simulation-configuration flags (-config, -placement, -routing,
	// -vcpolicy, -vcs, -depth, -cycles, -seed, -allow-unsafe, ...) come
	// from the shared config.BindFlags API.
	cf := config.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Parsing stops at the first argument that is not a flag, so every flag
	// after it would be dropped unseen.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "nocsim: unexpected argument %q: flags go before it, and -bench names the benchmark\n", fs.Arg(0))
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, err)
		return 1
	}

	cfg, err := cf.Config()
	if err != nil {
		return fail(err)
	}
	inst := gpu.Instrumentation{SanitizeEvery: *sanitize}
	if *trace != "" {
		if err := errors.Join(telemetry.ValidateEpoch(*traceEpoch), telemetry.ValidateRate(*traceRate)); err != nil {
			return fail(err)
		}
		inst.TelemetryEpoch, inst.Spans, inst.SpanRate = *traceEpoch, true, *traceRate
	} else if f := tracingFlag(fs); f != "" {
		return fail(fmt.Errorf("nocsim: -%s needs -trace", f))
	}

	stopProf, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		return fail(err)
	}
	// Profiles must land on every exit path, including the error exits
	// below.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintln(stderr, err)
			if code == 0 {
				code = 1
			}
		}
	}()

	prof, err := workload.Get(*bench)
	if err != nil {
		return fail(err)
	}
	sim, err := gpu.NewInstrumented(cfg, prof, inst)
	if err != nil {
		return fail(err)
	}
	res, runErr := sim.RunContext(context.Background())
	if runErr != nil {
		// Sanitizer violations (and cancellations) still report the partial
		// result; the non-zero exit is what CI keys on.
		fmt.Fprintln(stderr, runErr)
	}
	if res.Tel != nil {
		if err := telemetry.WriteTrace(*trace, res.Tel, res.Spans, res.Net.Mesh); err != nil {
			return fail(err)
		}
		sum := res.Tel.Summarize()
		fmt.Fprintf(stdout, "trace: %s/{series.jsonl,trace.json,heatmap.csv}  %d packets traced at rate %g  reply:request link flits %.2f (%d:%d)\n\n",
			*trace, res.Spans.NumTraces(), *traceRate, sum.ReplyRequestRatio(), sum.LinkFlits[packet.Reply], sum.LinkFlits[packet.Request])
	}
	fmt.Fprintln(stdout, experiments.Summary(res))
	if *heatmap {
		fmt.Fprintln(stdout)
		res.Net.Heatmap(stdout)
	}
	if res.Deadlocked {
		fmt.Fprintln(stdout, "\nthe configuration protocol-deadlocked; run with a safe VC policy (split/asymmetric/partial)")
		return 2
	}
	if runErr != nil {
		return 1
	}
	return 0
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

// tracingFlag names a -trace-* flag set on the command line, or returns "".
func tracingFlag(fs *flag.FlagSet) (name string) {
	fs.Visit(func(f *flag.Flag) {
		if strings.HasPrefix(f.Name, "trace-") {
			name = f.Name
		}
	})
	return name
}
