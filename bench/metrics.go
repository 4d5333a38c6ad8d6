package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one metric. The two tables below are the single source of
// the benchmark's vocabulary: BENCHMARK.json lists exactly these names (a
// test holds the two in step), every result line is filled from them, and
// -compare reads its bounds here.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"

	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before -compare (and the driver) call it a
	// regression. Per-layer metrics carry none.
	Bound float64

	// Exact marks simulated-domain values: a pure function of -seed and
	// -seconds, so two commits (or two runs) compare with ==, not a bound.
	Exact bool
}

// endToEnd is what a user of the simulator sees, measured untraced. Every
// workload reports every one of them; what "op" means on each workload is
// fixed by opAlias. One bound covers all seven workloads, so the host-time
// bounds are set by the noisiest of them on the shared reference box
// (mesh16_lanes and fabric_short, 6-8% run-to-run after normalisation; the
// single-threaded workloads spread 2-3%): three times that spread, capped
// at the 25% the driver allows.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sim_cycles_per_s", Unit: "cycles/s", Better: "higher", Bound: 0.25},
	{Name: "jobs_per_s", Unit: "jobs/s", Better: "higher", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "op_ms_tail", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_cycle", Unit: "B/cycle", Better: "lower", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// opAlias fixes, per workload, which operation op_ms_p50/op_ms_tail time,
// the percentile op_ms_tail reports, and the specific names the report
// prints them under.
type opAlias struct {
	What    string // the timed operation
	P50     string
	Tail    string
	TailPct int // 100 = slowest sample
}

var runOp = opAlias{What: "one RunContext", P50: "run_ms_p50", Tail: "run_ms_p75", TailPct: 75}

var opAliases = map[string]opAlias{
	"noc_bound":     runOp,
	"write_heavy":   runOp,
	"compute_bound": runOp,
	"mesh16_lanes":  runOp,
	"sweep_short":   {What: "one sweep job (Event.Elapsed)", P50: "job_ms_p50", Tail: "job_ms_p95", TailPct: 95},
	"fabric_short":  {What: "one warm resubmit: POST /submit of the stored spec + GET of its results", P50: "resubmit_ms_p50", Tail: "resubmit_ms_p90", TailPct: 90},
	"figs":          {What: "one figure regeneration", P50: "fig_ms_p50", Tail: "fig_ms_max", TailPct: 100},
}

// perLayer is the traced set. A traced run prints all of them; the ones its
// workload does not exercise read 0 (see bench/README.md for which workload
// measures which, and which end-to-end metric each should move).
var perLayer = []metricDef{
	// gpu: the whole-system cycle, in situ on the four run workloads.
	{Name: "gpu.step_ns", Unit: "ns", Better: "lower"},
	{Name: "gpu.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "gpu.tick_share", Unit: "ratio", Better: "lower"},
	{Name: "gpu.new_ms.mesh8", Unit: "ms", Better: "lower"},
	{Name: "gpu.new_ms.mesh16", Unit: "ms", Better: "lower"},
	{Name: "gpu.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "gpu.sim_ipc", Unit: "ipc", Better: "higher", Exact: true},
	{Name: "gpu.sim_instr", Unit: "count", Better: "higher", Exact: true},
	{Name: "gpu.result_digest", Unit: "hash48", Better: "higher", Exact: true},

	// noc: in situ through the Interconnect timing decorator, then isolated.
	{Name: "noc.step_ns", Unit: "ns", Better: "lower"},
	{Name: "noc.step_share", Unit: "ratio", Better: "lower"},
	{Name: "noc.flit_hops", Unit: "count", Better: "higher", Exact: true},
	{Name: "noc.flits_ejected", Unit: "count", Better: "higher", Exact: true},
	{Name: "noc.ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "noc.flits_in_flight_mean", Unit: "flits", Better: "lower", Exact: true},
	{Name: "noc.iso_step_ns.rate05", Unit: "ns", Better: "lower"},
	{Name: "noc.iso_step_ns.rate15", Unit: "ns", Better: "lower"},
	{Name: "noc.iso_step_ns.rate40", Unit: "ns", Better: "lower"},
	{Name: "noc.iso_allocs_per_step", Unit: "count", Better: "lower"},
	{Name: "noc.lanes_speedup", Unit: "ratio", Better: "higher"},
	{Name: "noc.mesh16_serial_ns_per_cycle", Unit: "ns", Better: "lower"},
	{Name: "noc.sim_reply_request_ratio", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "noc.sim_reply_net_latency_mean", Unit: "cycles", Better: "lower", Exact: true},

	// SM side.
	{Name: "smcore.iso_tick_ns", Unit: "ns", Better: "lower"},
	{Name: "smcore.sim_l1_miss_rate", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "smcore.sim_mshr_occupancy_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "workload.next_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.access_ns", Unit: "ns", Better: "lower"},
	{Name: "cache.mshr_op_ns", Unit: "ns", Better: "lower"},

	// Memory side.
	{Name: "mc.iso_tick_ns.read", Unit: "ns", Better: "lower"},
	{Name: "mc.iso_tick_ns.write", Unit: "ns", Better: "lower"},
	{Name: "mc.sim_l2_miss_rate", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "mc.sim_queue_len_mean", Unit: "count", Better: "lower", Exact: true},
	{Name: "dram.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "dram.sim_row_hit_rate", Unit: "ratio", Better: "higher", Exact: true},

	// Construction.
	{Name: "core.validate_ms.mesh8", Unit: "ms", Better: "lower"},
	{Name: "core.validate_ms.mesh16", Unit: "ms", Better: "lower"},

	// sweep engine.
	{Name: "sweep.expand_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.pool_utilisation", Unit: "ratio", Better: "higher"},
	{Name: "sweep.sink_us_per_record", Unit: "us", Better: "lower"},
	{Name: "sweep.job_setup_share", Unit: "ratio", Better: "lower"},

	// fabric: cost over the single-process sweep, then its parts.
	{Name: "fabric.overhead_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "fabric.leases", Unit: "count", Better: "lower"},
	{Name: "fabric.heartbeats", Unit: "count", Better: "lower"},
	{Name: "fabric.retries", Unit: "count", Better: "lower"},
	{Name: "fabric.store_hits", Unit: "count", Better: "higher"},
	{Name: "fabric.store_misses", Unit: "count", Better: "lower"},
	{Name: "fabric.jobs_per_lease", Unit: "ratio", Better: "higher"},
	{Name: "fabric.http_rtt_us", Unit: "us", Better: "lower"},
	{Name: "fabric.lease_complete_us", Unit: "us", Better: "lower"},
	{Name: "fabric.worker_idle_share", Unit: "ratio", Better: "lower"},
	{Name: "fabric.store_put_us", Unit: "us", Better: "lower"},
	{Name: "fabric.store_get_us", Unit: "us", Better: "lower"},
	{Name: "fabric.store_reload_ms", Unit: "ms", Better: "lower"},
	{Name: "fabric.resubmit_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fabric.cold_resubmit_ms", Unit: "ms", Better: "lower"},

	// experiments: one wall time per figure, and the shapes they produce.
	{Name: "experiments.fig2_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig3_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig7_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig8_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig9_s", Unit: "s", Better: "lower"},
	{Name: "experiments.fig10_s", Unit: "s", Better: "lower"},
	{Name: "experiments.division_s", Unit: "s", Better: "lower"},
	{Name: "experiments.sim_fig2_reply_request", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "experiments.sim_fig8_yx_mono", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "experiments.sim_fig9_bottom_yxfm", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "experiments.sim_fig9_diamond_xy", Unit: "ratio", Better: "higher", Exact: true},
	{Name: "experiments.sim_fig10_asym", Unit: "ratio", Better: "higher", Exact: true},

	// Instrumentation: overhead only.
	{Name: "telemetry.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "fleetobs.flight_overhead_pct", Unit: "%", Better: "lower"},
}

// value is one reported number, in the driver's wire form.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports: the last line of its output is
// this object, with exactly these keys.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// report collects one run's measurements and failure accounting. Operations
// are runs, jobs, submits, figures and output checks; a failed check is a
// failed operation, never just a log line.
type report struct {
	workload  string
	attempted int
	failed    int
	vals      map[string]float64
	notes     []string // extra lines for the human report
	digest    string   // sha256 of the canonical results
}

func newReport(workload string) *report {
	return &report{workload: workload, vals: map[string]float64{}}
}

// knownMetric holds every name of the two tables.
var knownMetric = func() map[string]bool {
	known := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			known[d.Name] = true
		}
	}
	return known
}()

// set records a measurement. A name outside the tables would silently
// never be printed, so it counts as a failed operation instead.
func (r *report) set(name string, v float64) {
	if !knownMetric[name] {
		r.op("metric "+name, fmt.Errorf("not in the metric tables"))
		return
	}
	r.vals[name] = v
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (r *report) op(what string, err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.notes = append(r.notes, fmt.Sprintf("FAILED %s: %v", what, err))
	}
}

// check counts an output check as an operation.
func (r *report) check(name string, ok bool, detail string) {
	var err error
	if !ok {
		err = fmt.Errorf("%s", detail)
	}
	r.op("check "+name, err)
	if ok {
		r.notes = append(r.notes, "check "+name+": ok")
	}
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// result renders the wire form over defs: every listed metric is present,
// the ones this run did not measure as 0.
func (r *report) result(defs []metricDef) result {
	out := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]value, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.Name] = value{Value: r.vals[d.Name], Unit: d.Unit}
	}
	return out
}

// print writes the human report: every measured metric by name with its
// unit, then the notes.
func (r *report) print(w io.Writer, defs []metricDef) {
	alias := opAliases[r.workload]
	for _, d := range defs {
		v, ok := r.vals[d.Name]
		if !ok {
			continue
		}
		name := d.Name
		switch name {
		case "op_ms_p50":
			name = alias.P50 + " [op_ms_p50]"
		case "op_ms_tail":
			name = alias.Tail + " [op_ms_tail]"
		}
		tag := ""
		if d.Exact {
			tag = "  (simulated, exact)"
		}
		fmt.Fprintf(w, "  %-44s %16s %s%s\n", name, formatValue(v), d.Unit, tag)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  # %s\n", n)
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("bench: encoding result: " + err.Error()) // plain value structs cannot fail
	}
	return string(b)
}

// tailPercentile is the percentile rule: the highest whole percentile with
// at least ten of n samples beyond it. Below twenty samples only the median
// qualifies.
func tailPercentile(n int) int {
	for p := 99; p > 50; p-- {
		if n*(100-p) >= 1000 {
			return p
		}
	}
	return 50
}

// percentile is the nearest-rank p-th percentile of samples (p in 1..100).
func percentile(samples []float64, p int) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := (len(s)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, v := range samples {
		t += v
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opLatency fills op_ms_p50/op_ms_tail from the workload's operation
// samples and notes the sample count against the percentile rule.
func (r *report) opLatency(samplesMS []float64) {
	a := opAliases[r.workload]
	r.set("op_ms_p50", median(samplesMS))
	r.set("op_ms_tail", percentile(samplesMS, a.TailPct))
	n := len(samplesMS)
	allowed := tailPercentile(n)
	switch {
	case a.TailPct == 100:
		r.notef("%s: %s, n=%d; %s is the slowest sample, not a percentile (rule allows p%d at this n)",
			a.P50, a.What, n, a.Tail, allowed)
	case a.TailPct > allowed:
		r.notef("%s: %s, n=%d; %s has fewer than 10 samples beyond it (rule allows p%d) - not comparable",
			a.P50, a.What, n, a.Tail, allowed)
	default:
		r.notef("%s: %s, n=%d (rule allows up to p%d)", a.P50, a.What, n, allowed)
	}
}

// pctOver is how much slower a is than b, in percent.
func pctOver(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * (a/b - 1)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
