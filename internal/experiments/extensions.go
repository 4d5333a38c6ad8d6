package experiments

import (
	"context"
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/sweep"
	"gpgpunoc/internal/synthetic"
)

// Sweep is an extension experiment beyond the paper's figures: classic
// latency/throughput curves from the synthetic harness, per routing
// algorithm on the bottom placement. It exposes where each design
// saturates — the mechanism behind the Figure 7 and 8 speedups.
//
// Every (rate, variant) cell is an independent deterministic simulation, so
// the cells run on the sweep engine's worker pool — a custom RunFunc wraps
// the synthetic harness — and the table is assembled in fixed rate×variant
// order afterwards, byte-identical at any worker count.
func Sweep(o Opts) (*Table, error) {
	rates := []float64{0.01, 0.02, 0.05, 0.10, 0.15, 0.20, 0.30, 0.40}
	type variant struct {
		label string
		rt    config.Routing
		pol   config.VCPolicy
	}
	variants := []variant{
		{"XY split", config.RoutingXY, config.VCSplit},
		{"YX split", config.RoutingYX, config.VCSplit},
		{"XY-YX split", config.RoutingXYYX, config.VCSplit},
		{"YX mono", config.RoutingYX, config.VCMonopolized},
	}
	t := &Table{
		ID:      "Sweep",
		Title:   "Synthetic latency/throughput: accepted flits/cycle (mean reply latency)",
		Columns: []string{"Inj. rate"},
	}
	for _, v := range variants {
		t.Columns = append(t.Columns, v.label)
	}
	base := config.Default()
	base.WarmupCycles, base.MeasureCycles = 1500, 8000
	base = o.apply(base)
	// Every cell is a bottom-placement design point; the variant's routing
	// and VC policy win over any override, like the figure runners' schemes.
	base.Placement = config.PlacementBottom

	key := func(rate float64, label string) string {
		return fmt.Sprintf("%.2f/%s", rate, label)
	}
	params := make(map[string]synthetic.Params, len(rates)*len(variants))
	jobs := make([]sweep.Job, 0, len(rates)*len(variants))
	for _, rate := range rates {
		for _, v := range variants {
			p := synthetic.DefaultParams()
			p.Config = base
			p.Config.NoC.Routing = v.rt
			p.Config.NoC.VCPolicy = v.pol
			p.InjectionRate = rate
			k := key(rate, v.label)
			params[k] = p
			jobs = append(jobs, sweep.Job{Key: k, Benchmark: "synthetic", Cfg: p.Config})
		}
	}
	// The params map is read-only once the pool starts; workers only look
	// their own cell up by key. The cells of one variant share its
	// core.Structure, built and proved once.
	run := func(_ context.Context, j sweep.Job) (gpu.Result, error) {
		h, err := synthetic.New(params[j.Key])
		if err != nil {
			return gpu.Result{}, err
		}
		st, dead := h.Run(j.Cfg.WarmupCycles, j.Cfg.MeasureCycles)
		return gpu.Result{Benchmark: j.Benchmark, Cycles: st.Cycles, Deadlocked: dead, Net: st}, nil
	}
	outs, err := sweep.Run(context.Background(), jobs, nil, sweep.Options{Workers: o.Parallel, Run: run})
	if err != nil {
		return nil, err
	}
	results := make(map[string]*gpu.Result, len(outs))
	for i := range outs {
		if outs[i].Err != nil {
			return nil, fmt.Errorf("%s: %w", outs[i].Job.Key, outs[i].Err)
		}
		results[outs[i].Job.Key] = outs[i].Res
	}

	for _, rate := range rates {
		row := []string{fmt.Sprintf("%.2f", rate)}
		for _, v := range variants {
			r := results[key(rate, v.label)]
			if r == nil {
				return nil, fmt.Errorf("sweep cell %s missing", key(rate, v.label))
			}
			if r.Deadlocked {
				row = append(row, "DEADLOCK")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f (%.0f)",
				r.Net.Throughput(), r.Net.NetLatency[packet.Reply].Mean()))
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes,
		"throughput saturates where the scheme's bottleneck links fill; XY first, YX-mono last")
	return t, nil
}

// Scaling is an extension experiment: does the proposed design's advantage
// survive at other mesh sizes? Bottom placement with N MCs on an NxN mesh,
// N^2-N SMs, baseline vs the proposed bottom+YX+FM design. All cells across
// every mesh size go to the worker pool as one batch, so the large 10x10
// runs overlap the small ones instead of each size draining serially.
func Scaling(o Opts) (*Table, error) {
	benchmarks := o.Benchmarks
	if len(benchmarks) == 0 {
		benchmarks = []string{"RED", "KMN", "SRAD"}
	}
	sizes := []int{6, 8, 10}

	t := &Table{
		ID:      "Scaling",
		Title:   "Proposed design speedup vs baseline across mesh sizes (bottom placement)",
		Columns: []string{"Mesh", "SMs", "MCs", "Baseline IPC (gm)", "Proposed IPC (gm)", "Speedup"},
	}
	var jobs []job
	for _, n := range sizes {
		mk := func(s core.Scheme) config.Config {
			cfg := o.apply(config.Default())
			cfg.NoC.Width, cfg.NoC.Height = n, n
			cfg.Mem.NumMCs = n
			cfg.Core.NumSMs = n*n - n
			return s.Apply(cfg)
		}
		for _, b := range benchmarks {
			jobs = append(jobs,
				job{key: fmt.Sprintf("%d/%s/base", n, b), bench: b, cfg: mk(core.Baseline)},
				job{key: fmt.Sprintf("%d/%s/best", n, b), bench: b, cfg: mk(core.BestProposed)})
		}
	}
	results, err := runAll(jobs, o.Parallel)
	if err != nil {
		return nil, err
	}
	for _, n := range sizes {
		var base, best []float64
		for _, b := range benchmarks {
			base = append(base, results[fmt.Sprintf("%d/%s/base", n, b)].IPC)
			best = append(best, results[fmt.Sprintf("%d/%s/best", n, b)].IPC)
		}
		gb, gp := geomean(base), geomean(best)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%dx%d", n, n),
			fmt.Sprintf("%d", n*n-n), fmt.Sprintf("%d", n),
			f3(gb), f3(gp), f2(gp/gb) + "x",
		})
	}
	t.Notes = append(t.Notes,
		"extension beyond the paper: the bottom+YX+FM advantage is not an 8x8 artifact")
	return t, nil
}
