package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"gpgpunoc/internal/experiments"
)

// figs regenerates the paper's figures at reduced scale. It is the breadth
// workload: the only one that runs YX and XY-YX routing, the monopolized,
// partial and asymmetric VC policies, the edge/top-bottom/diamond
// placements and the dual physical subnets - the code the paper's result
// shapes come from - and it carries the shape checks.

// figure is one experiment and the simulations it runs per benchmark.
type figure struct {
	id      string
	configs int
}

var figures = []figure{
	{"fig2", 1}, {"fig3", 1}, {"fig7", 3}, {"fig8", 4}, {"fig9", 8}, {"fig10", 2}, {"division", 3},
}

// figBenchmarks is the benchmark list in the order a smaller scale keeps
// them: the NoC-bound, the write-heavy and the compute-bound profile first,
// so fig2's RAY inversion and the geomeans keep their meaning at any scale.
var figBenchmarks = []string{"KMN", "RAY", "NQU", "BFS", "RED", "CP"}

const (
	fullFigBenchmarks = 5
	minFigBenchmarks  = 3
	figWarmup         = 2000
	figMeasure        = 10000
	figWarmReps       = 3
)

func figOpts(p params, benchmarks []string) experiments.Opts {
	return experiments.Opts{
		Benchmarks:    benchmarks,
		WarmupCycles:  figWarmup,
		MeasureCycles: figMeasure,
		Parallel:      nproc(),
		Seed:          p.seed + 1, // Opts reads 0 as "keep the default seed"
	}
}

// tableCell reads one numeric cell of a figure table by row label and
// column title.
func tableCell(t *experiments.Table, row, column string) (float64, error) {
	col := -1
	for i, c := range t.Columns {
		if c == column {
			col = i
		}
	}
	if col < 0 {
		return 0, fmt.Errorf("%s: no column %q", t.ID, column)
	}
	for _, r := range t.Rows {
		if r[0] == row && col < len(r) {
			v, err := strconv.ParseFloat(strings.TrimSuffix(r[col], "%"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s: cell (%s, %s) = %q: %w", t.ID, row, column, r[col], err)
			}
			return v, nil
		}
	}
	return 0, fmt.Errorf("%s: no row %q", t.ID, row)
}

// figsRun is figs, both sets: the per-figure wall times are the
// benchmark's own operation timings, so the traced set runs the same pass
// and reports them, with the shapes, by name.
func figsRun(p params, rep *report) error {
	n := min(len(figBenchmarks), max(minFigBenchmarks, p.count(fullFigBenchmarks, minFigBenchmarks)))
	benchmarks := figBenchmarks[:n]

	// Set-up is a warm-up: the smallest figure on one benchmark, so the heap
	// is grown before anything is timed. Done a few times, charged at the
	// median.
	fig2, err := experiments.ByID("fig2")
	if err != nil {
		return err
	}
	var warm []float64
	for i := 0; i < figWarmReps; i++ {
		warm = append(warm, p.clk.time(func() { _, err = fig2.Run(figOpts(p, benchmarks[:1])) })/1000)
		if err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}

	dig := newDigest()
	tables := map[string]*experiments.Table{}
	var figMS []float64
	jobs := 0
	before := totalAlloc()
	for _, f := range figures {
		runner, err := experiments.ByID(f.id)
		if err != nil {
			return err
		}
		var table *experiments.Table
		elapsedMS, _ := p.clk.timeBusy(func() { table, err = runner.Run(figOpts(p, benchmarks)) })
		rep.op("figure "+f.id, err)
		if err != nil {
			continue
		}
		figMS = append(figMS, elapsedMS)
		jobs += f.configs * n
		tables[f.id] = table
		dig.add(table)
		rep.set("experiments."+f.id+"_s", elapsedMS/1000)
	}
	alloc := totalAlloc() - before
	if len(figMS) == 0 {
		return fmt.Errorf("no figure completed")
	}
	wall := sum(figMS) / 1000
	cycles := int64(jobs) * (figWarmup + figMeasure)

	rep.notef("benchmarks %v, %d+%d cycles, %d simulations", benchmarks, figWarmup, figMeasure, jobs)
	shapeChecks(rep, tables)

	rep.set("setup_s", median(warm))
	rep.set("wall_s", wall)
	rep.set("sim_cycles_per_s", float64(cycles)/wall)
	rep.set("jobs_per_s", float64(jobs)/wall)
	rep.opLatency(figMS)
	rep.set("alloc_bytes_per_cycle", float64(alloc)/float64(cycles))
	rep.digest = dig.hex()
	rep.set("gpu.result_digest", hash48(rep.digest))
	return nil
}

// shapeChecks is output check 4: the result shapes EXPERIMENTS.md records
// for this reproduction, as relations rather than frozen numbers so they
// survive deliberate model changes. Where the reproduction documents a
// deviation from the paper (fig9: bottom+YX+FM ties diamond instead of
// beating it; fig10: the 1:3 gain is within noise at short windows) the
// check asserts what the repository's own reduced-scale tests assert.
func shapeChecks(rep *report, tables map[string]*experiments.Table) {
	cell := func(fig, row, column, metric string) float64 {
		t := tables[fig]
		if t == nil {
			return math.NaN() // the figure itself already failed
		}
		v, err := tableCell(t, row, column)
		if err != nil {
			rep.op("read "+fig, err)
			return math.NaN()
		}
		if metric != "" {
			rep.set(metric, v)
		}
		return v
	}
	const reply = "MC-to-Core (Reply)"
	rr := cell("fig2", "Geomean", reply, "experiments.sim_fig2_reply_request")
	ray := cell("fig2", "RAY", reply, "")
	rep.check("4 fig2 reply:request geomean in [1.5, 3.0], RAY < 1", rr >= 1.5 && rr <= 3.0 && ray < 1,
		fmt.Sprintf("geomean %.2f, RAY %.2f", rr, ray))

	yx, xyyx := cell("fig7", "Geomean", "YX", ""), cell("fig7", "Geomean", "XY-YX", "")
	rep.check("4 fig7 XY < YX < XY-YX", yx > 1 && xyyx > yx, fmt.Sprintf("YX %.3f, XY-YX %.3f", yx, xyyx))

	xyMono := cell("fig8", "Geomean", "XY (Monopolized)", "")
	yxMono := cell("fig8", "Geomean", "YX (Monopolized)", "experiments.sim_fig8_yx_mono")
	partial := cell("fig8", "Geomean", "XY-YX (Partially Monopolized)", "")
	rep.check("4 fig8 every monopolized geomean > 1", xyMono > 1 && yxMono > 1 && partial > 1,
		fmt.Sprintf("XY %.3f, YX %.3f, XY-YX partial %.3f", xyMono, yxMono, partial))

	bottom := cell("fig9", "Geomean", "Bottom (YX FM)", "experiments.sim_fig9_bottom_yxfm")
	diamond := cell("fig9", "Geomean", "Diamond (XY)", "experiments.sim_fig9_diamond_xy")
	rep.check("4 fig9 Bottom (YX FM) > 1 and within 20% of Diamond (XY)", bottom > 1 && diamond > 1 && bottom >= 0.8*diamond,
		fmt.Sprintf("Bottom (YX FM) %.3f, Diamond (XY) %.3f", bottom, diamond))

	asym := cell("fig10", "Geomean", "VC Partitioned (1:3)", "experiments.sim_fig10_asym")
	rep.check("4 fig10 1:3 within [0.9, 1.5] of 2:2", asym >= 0.9 && asym <= 1.5, fmt.Sprintf("1:3 geomean %.3f", asym))

	eq := cell("division", "Geomean", "Single/DualEq", "")
	rep.check("4 division: one network beats two at equal wires", eq > 1, fmt.Sprintf("Single/DualEq %.3f", eq))
}
