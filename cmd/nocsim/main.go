// Command nocsim runs one full-GPU simulation and prints the headline
// metrics: IPC, cache behaviour, network throughput and latency.
//
// Examples:
//
//	nocsim -bench KMN
//	nocsim -bench BFS -placement diamond -routing xy -vcpolicy partial
//	nocsim -bench RAY -routing yx -vcpolicy monopolized -cycles 50000
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/profiling"
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

		telEpoch = fs.Int64("telemetry-epoch", 0, "sample cycle-domain telemetry every N cycles (0 = off)")
		telOut   = fs.String("telemetry-out", "telemetry", "directory for telemetry artifacts (series.jsonl, heatmap.csv, trace.json)")

		cpuProf = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = fs.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	// All simulation-configuration flags (-config, -placement, -routing,
	// -vcpolicy, -vcs, -depth, -cycles, -seed, -allow-unsafe, ...) come
	// from the shared config.BindFlags API; the span-tracing flags
	// (-obs-sample-rate, -spans, -span-trace) from config.BindObsFlags.
	cf := config.BindFlags(fs)
	of := config.BindObsFlags(fs)
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
	if err := config.ValidateTelemetryEpoch(*telEpoch); err != nil {
		return fail(err)
	}
	if err := of.Validate(); err != nil {
		return fail(err)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
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
	inst := gpu.Instrumentation{
		SanitizeEvery:  *sanitize,
		TelemetryEpoch: *telEpoch,
		Spans:          of.SpansEnabled(),
		SpanRate:       of.SampleRate,
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
	if res.Spans != nil {
		if err := writeSpans(res.Spans, of.SpansOut, of.TraceOut); err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "spans: %d packets traced at rate %g", res.Spans.NumTraces(), res.Spans.Rate())
		if of.SpansOut != "" {
			fmt.Fprintf(stdout, "  log %s", of.SpansOut)
		}
		if of.TraceOut != "" {
			fmt.Fprintf(stdout, "  trace %s", of.TraceOut)
		}
		fmt.Fprintln(stdout)
	}
	if res.Tel != nil {
		m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
		if err := writeTelemetry(res, m, *telOut); err != nil {
			return fail(err)
		}
		sum := res.Tel.Summarize()
		fmt.Fprintf(stdout, "telemetry: %s/{series.jsonl,heatmap.csv,trace.json}  reply:request link flits %.2f (%d:%d)\n\n",
			*telOut, sum.ReplyRequestRatio(), sum.LinkFlits[packet.Reply], sum.LinkFlits[packet.Request])
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

// writeSpans exports the sampled-packet spans: the JSONL log (one line per
// traced packet, ReadSpans round-trippable) and/or the Chrome trace-event
// file (loadable in Perfetto, one track per packet).
func writeSpans(sp *obs.Spans, jsonlPath, tracePath string) error {
	if jsonlPath != "" {
		if err := writeFile(jsonlPath, sp.WriteJSONL); err != nil {
			return err
		}
	}
	if tracePath == "" {
		return nil
	}
	return writeFile(tracePath, sp.WriteChromeTrace)
}

// writeTelemetry exports the instrumented run's three artifacts into dir:
// the epoch time-series (series.jsonl), the link-utilization heatmap keyed
// by mesh coordinates (heatmap.csv), and a Chrome trace-event file
// (trace.json) loadable in chrome://tracing or Perfetto.
func writeTelemetry(res gpu.Result, m mesh.Mesh, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(w io.Writer) error) error {
		return writeFile(filepath.Join(dir, name), fn)
	}
	if err := write("series.jsonl", res.Tel.WriteJSONL); err != nil {
		return err
	}
	if err := write("heatmap.csv", func(w io.Writer) error {
		return res.Tel.WriteHeatmapCSV(w, m)
	}); err != nil {
		return err
	}
	return write("trace.json", func(w io.Writer) error {
		return res.Tel.WriteChromeTrace(w, telemetry.DefaultTraceFilter)
	})
}

// writeFile creates path and writes it with fn.
func writeFile(path string, fn func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
