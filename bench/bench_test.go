package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/workload"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{7, 50}, {19, 50}, {20, 50}, {40, 75}, {100, 90}, {432, 97}, {720, 98}, {1000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%d, want p%d", c.n, got, c.want)
		}
	}
	samples := make([]float64, 40)
	for i := range samples {
		samples[i] = float64(40 - i) // 40..1, unsorted on purpose
	}
	if got := percentile(samples, 75); got != 30 {
		t.Errorf("p75 of 1..40 = %v, want 30 (ten samples beyond it)", got)
	}
	if got := median(samples); got != 20.5 {
		t.Errorf("median of 1..40 = %v, want 20.5", got)
	}

	// The sample count travels with the percentiles.
	rep := newReport("noc_bound")
	rep.opLatency(samples)
	if len(rep.notes) != 1 || !strings.Contains(rep.notes[0], "n=40") || strings.Contains(rep.notes[0], "not comparable") {
		t.Errorf("40 samples: note = %q", rep.notes)
	}
	rep = newReport("noc_bound")
	rep.opLatency(samples[:10])
	if !strings.Contains(rep.notes[0], "n=10") || !strings.Contains(rep.notes[0], "not comparable") {
		t.Errorf("10 samples must be flagged: note = %q", rep.notes)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q2, q3, ok := quartiles(v)
	if !ok || q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v %v", q1, q2, q3, ok)
	}
	if _, _, _, ok := quartiles(v[:1]); ok {
		t.Error("one sample has no quartiles")
	}
}

// shortRun is the noc_bound system at a run length that keeps the test
// suite fast.
func shortRun() (runSpec, workload.Profile) {
	spec := runSpecs["noc_bound"]
	prof, err := workload.Get(spec.profile)
	if err != nil {
		panic(err)
	}
	return spec, prof
}

func TestTimingDecoratorIsTransparent(t *testing.T) {
	spec, prof := shortRun()
	cfg := spec.config(3)
	cfg.WarmupCycles, cfg.MeasureCycles = 300, 2000

	tn := &timedNet{}
	var g gauges
	clk := newHostClock()
	traced, err := oneRun(clk, cfg, prof, tn, &g)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := oneRun(clk, cfg, prof, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traced.sum != plain.sum {
		t.Errorf("decorated run differs:\n traced %+v\n plain  %+v", traced.sum, plain.sum)
	}
	if traced.res.IPC != plain.res.IPC || traced.res.IPC == 0 {
		t.Errorf("IPC traced %v, plain %v", traced.res.IPC, plain.res.IPC)
	}
	if tn.steps != 2300 || tn.measSteps != 2000 || tn.ns <= tn.measNS || tn.measNS <= 0 {
		t.Errorf("decorator saw %d steps (%d measured), %d ns (%d measured)", tn.steps, tn.measSteps, tn.ns, tn.measNS)
	}
	if g.samples != 2 || g.flitsInFlight == 0 {
		t.Errorf("gauges sampled %d times, %d flits", g.samples, g.flitsInFlight)
	}
}

func TestStubIsAnInterconnectSMsAndMCsCanUse(t *testing.T) {
	var net noc.Interconnect = &stubNet{}
	if !net.Inject(&packet.Packet{ID: 1}) {
		t.Fatal("stub refused a packet")
	}
	// The probes drive real SMs and a real MC against the stub; any call
	// other than Inject would dereference the nil embedded interface.
	spec := runSpecs["compute_bound"]
	prof, err := workload.Get(spec.profile)
	if err != nil {
		t.Fatal(err)
	}
	rep := newReport(spec.name)
	pass := &tracedPass{spec: spec, prof: prof}
	for _, probe := range []func(params, *report, *tracedPass) error{probeSM, probeMC, probeDRAM} {
		if err := probe(params{seed: 1, clk: newHostClock()}, rep, pass); err != nil {
			t.Fatal(err)
		}
	}
	for _, name := range []string{"smcore.iso_tick_ns", "mc.iso_tick_ns.read", "mc.iso_tick_ns.write", "dram.tick_ns"} {
		if rep.vals[name] <= 0 {
			t.Errorf("%s = %v", name, rep.vals[name])
		}
	}
	if rep.failed != 0 {
		t.Errorf("probe failures: %v", rep.notes)
	}
}

func TestGridIsAPureFunctionOfSeed(t *testing.T) {
	a, b := mustJSON(sweepSpec(7, 3)), mustJSON(sweepSpec(7, 3))
	if a != b {
		t.Error("same seed, different spec")
	}
	if a == mustJSON(sweepSpec(8, 3)) {
		t.Error("different seed, same spec")
	}
	full, _, err := sweepSpec(7, 3).Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(full) != 36 {
		t.Fatalf("3 seeds expand to %d jobs, want 36", len(full))
	}
	head, _, err := sweepHead(7, 3).Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i, j := range head {
		if j.Fingerprint() != full[i].Fingerprint() {
			t.Errorf("head job %d is %s, grid job %d is %s", i, j.Key, i, full[i].Key)
		}
	}
	if p := (params{seconds: nominalSeconds}); p.count(fullRuns, 2) != fullRuns {
		t.Errorf("nominal -seconds gives %d runs", p.count(fullRuns, 2))
	}
	if p := (params{seconds: nominalSeconds, quick: true}); p.count(fullRuns, 2) != 2 {
		t.Errorf("-quick gives %d runs", p.count(fullRuns, 2))
	}
}

// benchmarkJSON mirrors the driver's schema.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != nominalSeconds {
		t.Errorf("run_seconds %d, nominal %d", bj.RunSeconds, nominalSeconds)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q", i, bj.Workloads[i].Name)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters (%d)", w.name, len(w.why))
		}
		if _, ok := opAliases[w.name]; !ok {
			t.Errorf("%s has no operation alias", w.name)
		}
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	match := func(kind string, defs []metricDef, listed []benchMetric, bounded bool) {
		if len(defs) != len(listed) {
			t.Errorf("%s: %d metrics in the program, %d in BENCHMARK.json", kind, len(defs), len(listed))
			return
		}
		for i, d := range defs {
			l := listed[i]
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s %q (%q): bad or repeated name or unit", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if l.Name != d.Name || l.Unit != d.Unit || l.Better != d.Better || (d.Better != "higher" && d.Better != "lower") {
				t.Errorf("%s %d: program %+v, BENCHMARK.json %+v", kind, i, d, l)
			}
			switch {
			case bounded && (l.Bound == nil || *l.Bound != d.Bound || d.Bound <= 0 || d.Bound > 0.25):
				t.Errorf("%s: bound %v in the program, %v in BENCHMARK.json", d.Name, d.Bound, l.Bound)
			case !bounded && (l.Bound != nil || d.Bound != 0):
				t.Errorf("%s: a per-layer metric carries no bound", d.Name)
			}
		}
	}
	match("end_to_end", endToEnd, bj.EndToEnd, true)
	match("per_layer", perLayer, bj.PerLayer, false)
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower better")
	}

	// A result line carries every listed metric and nothing else.
	rep := newReport("figs")
	rep.set("wall_s", 1)
	res := rep.result(endToEnd)
	if len(res.Metrics) != len(endToEnd) || res.Metrics["wall_s"].Value != 1 || res.Metrics["setup_s"].Unit != "s" {
		t.Errorf("result line: %+v", res)
	}
	rep.set("no.such.metric", 1)
	if rep.failed != 1 {
		t.Error("setting a metric outside the tables must count as a failure")
	}
}

func TestSourceAvoidsAPIsTheRoadmapMayDelete(t *testing.T) {
	// Spelled in halves so this file does not trip a plain grep either.
	banned := []string{"Reference" + "Stepper", "Fast" + "Forward", "Rebalance" + "Epoch", "Run" + "Options"}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range banned {
			if bytes.Contains(src, []byte(b)) {
				t.Errorf("%s references %s", f, b)
			}
		}
	}
}

// TestQuickSweepAndFabricAgree runs the two sweep workloads at -quick scale
// in this process: every check passes, and the fabric's result digest is
// the single-process engine's (check 1, as -all verifies it).
func TestQuickSweepAndFabricAgree(t *testing.T) {
	root := t.TempDir()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(root); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	digests := map[string]string{}
	for _, w := range []string{"sweep_short", "fabric_short"} {
		rep, err := measure(params{workload: w, seed: 5, seconds: nominalSeconds, quick: true})
		if err != nil {
			t.Fatal(err)
		}
		if rep.failed != 0 || rep.attempted < 24 {
			t.Errorf("%s: %d of %d operations failed: %v", w, rep.failed, rep.attempted, rep.notes)
		}
		for _, d := range endToEnd {
			if rep.vals[d.Name] <= 0 {
				t.Errorf("%s: %s = %v, must never be 0", w, d.Name, rep.vals[d.Name])
			}
		}
		digests[w] = rep.digest
	}
	if digests["sweep_short"] == "" || digests["sweep_short"] != digests["fabric_short"] {
		t.Errorf("digests differ: %v", digests)
	}
	if left, _ := filepath.Glob(filepath.Join(root, ".bench_build", "work", "*")); len(left) != 0 {
		t.Errorf("work directories left behind: %v", left)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(seed uint64, wall float64, digest string) setResult {
		rep := newReport("noc_bound")
		rep.attempted = 40
		for _, d := range endToEnd {
			rep.set(d.Name, 100)
		}
		rep.set("wall_s", wall)
		return setResult{Seed: seed, Seconds: nominalSeconds, Comparable: true,
			Workloads: map[string]result{"noc_bound": rep.result(endToEnd)},
			Digests:   map[string]string{"noc_bound": digest}}
	}
	write := func(name string, sets ...setResult) string {
		var b strings.Builder
		for _, s := range sets {
			b.WriteString(mustJSON(s) + "\n")
		}
		path := filepath.Join(t.TempDir(), name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a.json", set(1, 10.0, "d1"), set(2, 10.1, "d2"), set(3, 9.9, "d3"), set(4, 10.0, "d4"))

	var out bytes.Buffer
	same := write("b.json", set(1, 10.05, "d1"), set(2, 10.0, "d2"), set(3, 10.1, "d3"), set(4, 9.95, "d4"))
	if err := compareFiles(&out, base, same); err != nil {
		t.Errorf("agreeing sets: %v\n%s", err, out.String())
	}

	out.Reset()
	slow := write("slow.json", set(1, 14.0, "d1"), set(2, 14.1, "d2"), set(3, 13.9, "d3"), set(4, 14.0, "d4"))
	if err := compareFiles(&out, base, slow); err == nil || !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("a 40%% slower wall_s must breach:\n%s", out.String())
	}

	out.Reset()
	noisy := write("noisy.json", set(1, 7.0, "d1"), set(2, 13.0, "d2"), set(3, 8.0, "d3"), set(4, 12.0, "d4"))
	if err := compareFiles(&out, base, noisy); err != nil || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must read unresolved, not ok (err %v):\n%s", err, out.String())
	}

	out.Reset()
	drift := write("drift.json", set(1, 10.0, "other"))
	if err := compareFiles(&out, base, drift); err == nil || !strings.Contains(out.String(), "MISMATCH") {
		t.Errorf("a changed result_digest at equal seed must breach:\n%s", out.String())
	}
}
