// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's per-experiment index). Each runner returns a
// formatted Table; cmd/experiments prints them and the repository benchmark
// (bench/, workload figs) times them at reduced scale.
//
// Runs are parallelized across (benchmark, configuration) pairs — every
// simulation is independent and deterministic, so tables are reproducible
// regardless of worker count, and a run that several figures ask for is
// simulated once per process (memo.go).
package experiments

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
	"gpgpunoc/internal/workload"
)

// Opts control experiment scale.
type Opts struct {
	// Benchmarks to run; nil means all 25.
	Benchmarks []string
	// WarmupCycles/MeasureCycles override the config defaults when > 0.
	WarmupCycles, MeasureCycles int
	// Parallel is the worker count; 0 means GOMAXPROCS.
	Parallel int
	// Seed overrides the default seed when non-zero.
	Seed uint64
	// Overrides, when set, layers explicitly-set configuration fields
	// (typically config.Flags.Overrides) over each experiment's base
	// configuration. Scheme-controlled dimensions (placement, routing, VC
	// policy) are still applied by the experiment after it.
	Overrides func(config.Config) config.Config
}

// ParseBenchmarks splits a comma-separated benchmark list, as the CLIs'
// -benchmarks flag takes it, trimming the spaces around each name. The empty
// list is nil, meaning all; an empty entry ("KMN,") is an error.
func ParseBenchmarks(list string) ([]string, error) {
	if list == "" {
		return nil, nil
	}
	var names []string
	for _, b := range strings.Split(list, ",") {
		b = strings.TrimSpace(b)
		if b == "" {
			return nil, errors.New("empty benchmark name")
		}
		names = append(names, b)
	}
	return names, nil
}

func (o Opts) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return workload.Names()
}

func (o Opts) apply(cfg config.Config) config.Config {
	if o.WarmupCycles > 0 {
		cfg.WarmupCycles = o.WarmupCycles
	}
	if o.MeasureCycles > 0 {
		cfg.MeasureCycles = o.MeasureCycles
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
	}
	if o.Overrides != nil {
		cfg = o.Overrides(cfg)
	}
	return cfg
}

// Table is a printable experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, r := range t.Rows {
		for i, cell := range r {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Columns)
	total := len(widths) - 1
	for _, w2 := range widths {
		total += w2 + 1
	}
	fmt.Fprintln(w, strings.Repeat("-", total))
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// tableJSON is the stable wire form of a Table; field names are part of
// the public encoding and must not change incompatibly.
type tableJSON struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// MarshalJSON encodes the table in its stable machine-readable form.
func (t *Table) MarshalJSON() ([]byte, error) {
	return json.Marshal(tableJSON{ID: t.ID, Title: t.Title, Columns: t.Columns, Rows: t.Rows, Notes: t.Notes})
}

// UnmarshalJSON decodes the stable form written by MarshalJSON.
func (t *Table) UnmarshalJSON(data []byte) error {
	var j tableJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*t = Table{ID: j.ID, Title: j.Title, Columns: j.Columns, Rows: j.Rows, Notes: j.Notes}
	return nil
}

// WriteCSV writes the table as RFC-4180 CSV: a header row of Columns
// followed by the data rows. Notes are not emitted — CSV has no comment
// syntax consumers agree on.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Columns); err != nil {
		return err
	}
	for _, r := range t.Rows {
		if err := cw.Write(r); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// job is one simulation to run, identified by its (benchmark, label) key.
type job struct {
	key   string
	bench string
	cfg   config.Config
}

// simulate executes every job on the sweep engine's worker pool and returns
// results keyed by job key. Jobs run and report in slice order, so callers
// control ordering explicitly instead of relying on map traversal. The figure
// runners are thereby thin consumers of the same engine cmd/sweep drives:
// same parallelism, same panic isolation, same deterministic behavior. A nil
// run is sweep.Simulate.
func simulate(jobs []job, workers int, run sweep.RunFunc) (map[string]gpu.Result, error) {
	sj := make([]sweep.Job, 0, len(jobs))
	for _, j := range jobs {
		sj = append(sj, sweep.Job{Key: j.key, Benchmark: j.bench, Cfg: j.cfg})
	}
	outs, err := sweep.Run(context.Background(), sj, nil, sweep.Options{Workers: workers, Run: run})
	if err != nil {
		return nil, err
	}
	results := make(map[string]gpu.Result, len(jobs))
	var firstErr error
	for _, o := range outs {
		if o.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("%s: %w", o.Job.Key, o.Err)
		}
		if o.Res != nil {
			results[o.Job.Key] = *o.Res
		}
	}
	return results, firstErr
}

// geomean of strictly positive values; zero values are clamped to epsilon so
// one deadlocked/degenerate run does not zero the whole mean.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		if v <= 0 {
			v = 1e-9
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}

func f2(v float64) string  { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string  { return fmt.Sprintf("%.3f", v) }
func pct(v float64) string { return fmt.Sprintf("%.1f%%", 100*v) }

// labeledConfig pairs a scheme label with the configuration it produces.
type labeledConfig struct {
	label string
	cfg   config.Config
}

// schemeConfigs builds one labelled config per scheme over a base, in scheme
// order.
func schemeConfigs(base config.Config, schemes []core.Scheme) []labeledConfig {
	out := make([]labeledConfig, len(schemes))
	for i, s := range schemes {
		out[i] = labeledConfig{label: s.Label, cfg: s.Apply(base)}
	}
	return out
}

// runSchemes runs every benchmark under every scheme and returns
// ipc[benchmark][label].
func runSchemes(o Opts, base config.Config, schemes []core.Scheme) (map[string]map[string]float64, error) {
	cfgs := schemeConfigs(o.apply(base), schemes)
	var jobs []job
	for _, b := range o.benchmarks() {
		for _, lc := range cfgs {
			jobs = append(jobs, job{key: b + "/" + lc.label, bench: b, cfg: lc.cfg})
		}
	}
	results, err := runAll(jobs, o.Parallel)
	if err != nil {
		return nil, err
	}
	ipc := map[string]map[string]float64{}
	for _, b := range o.benchmarks() {
		ipc[b] = map[string]float64{}
		for _, lc := range cfgs {
			ipc[b][lc.label] = results[b+"/"+lc.label].IPC
		}
	}
	return ipc, nil
}

// normalizedTable renders per-benchmark IPC of each scheme normalized to the
// first scheme, with a geomean row — the format of Figures 7-10.
func normalizedTable(id, title string, o Opts, ipc map[string]map[string]float64, schemes []core.Scheme) *Table {
	t := &Table{ID: id, Title: title, Columns: []string{"Benchmark"}}
	for _, s := range schemes {
		t.Columns = append(t.Columns, s.Label)
	}
	norm := make(map[string][]float64, len(schemes))
	for _, b := range o.benchmarks() {
		base := ipc[b][schemes[0].Label]
		row := []string{b}
		for _, s := range schemes {
			v := 0.0
			if base > 0 {
				v = ipc[b][s.Label] / base
			}
			row = append(row, f3(v))
			norm[s.Label] = append(norm[s.Label], v)
		}
		t.Rows = append(t.Rows, row)
	}
	gm := []string{"Geomean"}
	for _, s := range schemes {
		gm = append(gm, f3(geomean(norm[s.Label])))
	}
	t.Rows = append(t.Rows, gm)
	return t
}
