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

func main() {
	var (
		bench    = flag.String("bench", "KMN", "benchmark name ("+strings.Join(workload.Names(), ",")+")")
		heatmap  = flag.Bool("heatmap", false, "print per-direction link utilization heatmaps")
		linkCSV  = flag.String("linkcsv", "", "write per-link flit counts as CSV to this file")
		sanitize = flag.Int("sanitize", 0, "validate interconnect invariants every N cycles (0 = off)")

		telEpoch = flag.Int64("telemetry-epoch", 0, "sample cycle-domain telemetry every N cycles (0 = off)")
		telOut   = flag.String("telemetry-out", "telemetry", "directory for telemetry artifacts (series.jsonl, heatmap.csv, trace.json)")

		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file at exit")
	)
	// All simulation-configuration flags (-config, -placement, -routing,
	// -vcpolicy, -vcs, -depth, -cycles, -seed, -allow-unsafe, ...) come
	// from the shared config.BindFlags API; the live-observability flags
	// (-obs-addr, -obs-publish, -obs-sample-rate, -spans, -span-trace)
	// from config.BindObsFlags.
	cf := config.BindFlags(flag.CommandLine)
	of := config.BindObsFlags(flag.CommandLine)
	flag.Parse()

	cfg, err := cf.Config()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := config.ValidateTelemetryEpoch(*telEpoch); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := of.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	stopProf, err := profiling.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	// Profiles must land on every exit path, including the error exits
	// below, so route all of them through one exit helper.
	exit := func(code int) {
		if err := stopProf(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			if code == 0 {
				code = 1
			}
		}
		os.Exit(code)
	}

	for _, w := range cfg.Warnings() {
		fmt.Fprintln(os.Stderr, w)
	}

	prof, err := workload.Get(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	inst := gpu.Instrumentation{
		SanitizeEvery:  *sanitize,
		TelemetryEpoch: *telEpoch,
		Spans:          of.SpansEnabled(),
		SpanRate:       of.SampleRate,
	}
	var srv *obs.Server
	if of.Addr != "" {
		srv, err = obs.NewServer(of.Addr)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		// No Close: the server lives until process exit so late scrapes
		// still see the final snapshot.
		inst.Obs = srv
		inst.PublishEvery = of.PublishEvery
	}
	sim, err := gpu.NewInstrumented(cfg, prof, inst)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(1)
	}
	if srv != nil {
		fmt.Printf("observability: http://%s/{metrics,state,progress,healthz}\n", srv.Addr())
	}
	res, runErr := sim.RunContext(context.Background())
	if runErr != nil {
		// Sanitizer violations (and cancellations) still report the partial
		// result; the non-zero exit is what CI keys on.
		fmt.Fprintln(os.Stderr, runErr)
	}
	if lanes := sim.Net.StateSnapshot().Lanes; len(lanes) > 1 {
		// The partition the parallel kernel ended on: which rows each lane
		// stepped and its share of the last window's counted work.
		fmt.Fprint(os.Stderr, "lanes:")
		for _, l := range lanes {
			fmt.Fprintf(os.Stderr, " %d=rows %d-%d (%.0f%%)", l.Lane, l.FirstRow, l.FirstRow+l.Rows-1, 100*l.WorkShare)
		}
		fmt.Fprintln(os.Stderr)
	}
	if res.Spans != nil {
		if err := writeSpans(res.Spans, of.SpansOut, of.TraceOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		fmt.Printf("spans: %d packets traced at rate %g", res.Spans.NumTraces(), res.Spans.Rate())
		if of.SpansOut != "" {
			fmt.Printf("  log %s", of.SpansOut)
		}
		if of.TraceOut != "" {
			fmt.Printf("  trace %s", of.TraceOut)
		}
		fmt.Println()
	}
	if res.Tel != nil {
		m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
		if err := writeTelemetry(res, m, *telOut); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		sum := res.Tel.Summarize()
		fmt.Printf("telemetry: %s/{series.jsonl,heatmap.csv,trace.json}  reply:request link flits %.2f (%d:%d)\n\n",
			*telOut, sum.ReplyRequestRatio(), sum.LinkFlits[packet.Reply], sum.LinkFlits[packet.Request])
	}
	fmt.Println(experiments.Summary(res))
	if *heatmap {
		fmt.Println()
		res.Net.Heatmap(os.Stdout)
	}
	if *linkCSV != "" {
		f, err := os.Create(*linkCSV)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if err := res.Net.WriteLinkCSV(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
	}
	if res.Deadlocked {
		fmt.Println("\nthe configuration protocol-deadlocked; run with a safe VC policy (split/asymmetric/partial)")
		exit(2)
	}
	if runErr != nil {
		exit(1)
	}
	exit(0)
}

// writeSpans exports the sampled-packet spans: the JSONL log (one line per
// traced packet, ReadSpans round-trippable) and/or the Chrome trace-event
// file (loadable in Perfetto, one track per packet).
func writeSpans(sp *obs.Spans, jsonlPath, tracePath string) error {
	write := func(path string, fn func(w io.Writer) error) error {
		if path == "" {
			return nil
		}
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
	if err := write(jsonlPath, sp.WriteJSONL); err != nil {
		return err
	}
	return write(tracePath, sp.WriteChromeTrace)
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
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
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
