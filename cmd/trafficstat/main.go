// Command trafficstat characterizes GPGPU on-chip traffic per benchmark:
// Figure 2 (request vs reply volumes) and Figure 3 (packet type
// distribution) on the baseline system. Both figures read the same runs:
// internal/experiments keeps finished runs for the life of the process, so
// each benchmark is simulated once and Figure 3 costs only its rendering.
//
// Examples:
//
//	trafficstat
//	trafficstat -benchmarks RAY,KMN,BFS -cycles 40000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so tests can pin
// what it prints. It returns the process exit code: 2 for flags it cannot
// parse, 1 for anything that fails after that.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("trafficstat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		benchmark = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		parallel  = fs.Int("parallel", 0, "worker goroutines")
		probes    = fs.Bool("probes", false, "re-derive Figure 2 from the telemetry link probes (with latency decomposition)")
		telEpoch  = fs.Int64("telemetry-epoch", 1000, "telemetry sampling epoch for -probes, cycles")
	)
	// Configuration overrides (-cycles, -warmup, -seed, ...) come from
	// the shared config.BindFlags API.
	cf := config.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	overrides, err := cf.Overrides()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	benchmarks, err := experiments.ParseBenchmarks(*benchmark)
	if err != nil {
		fmt.Fprintf(stderr, "-benchmarks %q: %v\n", *benchmark, err)
		return 2
	}
	opts := experiments.Opts{Benchmarks: benchmarks, Parallel: *parallel, Overrides: overrides}
	if *probes {
		t, err := experiments.ProbeFig2(opts, *telEpoch)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		t.Fprint(stdout)
		return 0
	}
	for _, fig := range []func(experiments.Opts) (*experiments.Table, error){
		experiments.Fig2, experiments.Fig3,
	} {
		t, err := fig(opts)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		t.Fprint(stdout)
	}
	return 0
}
