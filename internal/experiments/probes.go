package experiments

import (
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/sweep"
	"gpgpunoc/internal/telemetry"
)

// ProbeFig2 re-derives Figure 2's traffic asymmetry through the telemetry
// subsystem: per-benchmark request and reply flit totals summed over every
// fabric link, their ratio, and the dominant latency segment of the read
// transaction. The link probes read the kernel's own per-flit counts (the
// network's spine) over the whole run, warm-up included; stats.Net reports
// the same counts over the measurement window. So the table is not a
// second count but the observability demo: everything in it comes through
// probe registration and telemetry.Summarize, not from stats.Net.
//
// Its runs go around the result memo: they carry their run's telemetry,
// which no other runner wants and a stored plain result cannot supply.
func ProbeFig2(o Opts) (*Table, error) {
	base := o.apply(config.Default())
	var jobs []job
	for _, b := range o.benchmarks() {
		jobs = append(jobs, job{key: b, bench: b, cfg: base})
	}
	results, err := simulate(jobs, o.Parallel, sweep.SimulateWith(gpu.Instrumentation{TelemetryEpoch: probeEpoch}))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "ProbeFig2",
		Title: "Request vs reply link flits from telemetry probes (Figure 2 cross-check)",
		Columns: []string{"Benchmark", "Request flits", "Reply flits", "Reply:Request",
			"Read srcqueue", "Read reqnet", "Read mcservice", "Read replynet"},
	}
	var ratios []float64
	for _, b := range o.benchmarks() {
		res, ok := results[b]
		if !ok || res.Tel == nil {
			return nil, fmt.Errorf("experiments: no telemetry for %s", b)
		}
		sum := res.Tel.Summarize()
		ratios = append(ratios, sum.ReplyRequestRatio())
		row := []string{b,
			fmt.Sprintf("%d", sum.LinkFlits[packet.Request]),
			fmt.Sprintf("%d", sum.LinkFlits[packet.Reply]),
			f2(sum.ReplyRequestRatio()),
		}
		for seg := telemetry.Segment(0); seg < telemetry.NumSegments; seg++ {
			row = append(row, f2(readSegmentMean(sum, seg)))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Rows = append(t.Rows, []string{"Geomean", "", "", f2(geomean(ratios)), "", "", "", ""})
	t.Notes = append(t.Notes,
		"counts are the kernel's link flits read through telemetry probes, warm-up included",
		"latency columns are mean cycles per read-transaction segment",
		"paper: reply volume ~2x request on average; RAY inverts due to write demand")
	return t, nil
}

// readSegmentMean extracts the mean of one read-latency segment from a
// telemetry summary, 0 when the run observed no decomposed reads.
func readSegmentMean(sum telemetry.Summary, seg telemetry.Segment) float64 {
	for _, ls := range sum.Latency {
		if ls.Kind == "read" && ls.Segment == seg.String() {
			return ls.Mean
		}
	}
	return 0
}

// probeEpoch is the telemetry sampling epoch of ProbeFig2's runs, in cycles.
// The table cannot depend on it: Summarize reads the registry's final
// counter and histogram values, not the epoch samples.
const probeEpoch = 1000
