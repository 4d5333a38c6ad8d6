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
	"os"
	"strings"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
)

func main() {
	var (
		benchmarks = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all)")
		parallel   = flag.Int("parallel", 0, "worker goroutines")
		probes     = flag.Bool("probes", false, "re-derive Figure 2 from the telemetry link probes (with latency decomposition)")
		telEpoch   = flag.Int64("telemetry-epoch", 1000, "telemetry sampling epoch for -probes, cycles")
	)
	// Configuration overrides (-cycles, -warmup, -seed, ...) come from
	// the shared config.BindFlags API.
	cf := config.BindFlags(flag.CommandLine)
	flag.Parse()

	opts := experiments.Opts{Parallel: *parallel, Overrides: cf.Overrides()}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}
	if *probes {
		t, err := experiments.ProbeFig2(opts, *telEpoch)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
		return
	}
	for _, run := range []func(experiments.Opts) (*experiments.Table, error){
		experiments.Fig2, experiments.Fig3,
	} {
		t, err := run(opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		t.Fprint(os.Stdout)
	}
}
