package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
	"gpgpunoc/internal/workload"
)

// sweep_short and fabric_short (fabric.go) run the same grid of short jobs -
// once through the single-process engine, once through coordinator +
// workers - so the difference between them is the fabric.

// fullSeeds is the replicate count at the nominal 12 s; the grid has twelve
// points per seed.
const fullSeeds = 36

// sweepSpec is the grid: {KMN,BFS,RAY} x bottom x {xy,yx} x
// {split,monopolized} x seeds S..S+n-1 at 500+1500 cycles. Replicate-heavy
// and short on purpose: a job is ~30 ms, so per-job construction and the
// record sink are a visible share of it.
func sweepSpec(seed uint64, seeds int) sweep.Spec {
	s := sweep.Spec{
		Benchmarks:    []string{"KMN", "BFS", "RAY"},
		Placements:    []config.Placement{config.PlacementBottom},
		Routings:      []config.Routing{config.RoutingXY, config.RoutingYX},
		VCPolicies:    []config.VCPolicy{config.VCSplit, config.VCMonopolized},
		WarmupCycles:  500,
		MeasureCycles: 1500,
	}
	for i := 0; i < seeds; i++ {
		s.Seeds = append(s.Seeds, seed+uint64(i))
	}
	return s
}

// sweepHead is the spec whose expansion is exactly the first k jobs of
// sweepSpec's: seeds are the innermost loop, so the head of the grid is the
// first grid point's replicates.
func sweepHead(seed uint64, k int) sweep.Spec {
	s := sweepSpec(seed, k)
	s.Benchmarks, s.Routings, s.VCPolicies = s.Benchmarks[:1], s.Routings[:1], s.VCPolicies[:1]
	return s
}

// loadSpec generates the spec file into dir and takes it back in the way a
// user's file arrives: bytes, ParseSpec, Expand.
func loadSpec(dir string, spec sweep.Spec) (raw []byte, jobs []sweep.Job, err error) {
	path := filepath.Join(dir, "spec.json")
	if err = os.WriteFile(path, []byte(mustJSON(spec)), 0o644); err != nil {
		return nil, nil, err
	}
	if raw, err = os.ReadFile(path); err != nil {
		return nil, nil, err
	}
	parsed, err := sweep.ParseSpec(raw)
	if err != nil {
		return nil, nil, err
	}
	jobs, _, err = parsed.Expand()
	return raw, jobs, err
}

// timedSink is the sink decorator of the traced set.
type timedSink struct {
	inner sweep.Sink
	ns, n atomic.Int64
}

func (t *timedSink) Write(rec sweep.Record) error {
	start := time.Now()
	err := t.inner.Write(rec)
	t.ns.Add(int64(time.Since(start)))
	t.n.Add(1)
	return err
}

// sweepPass is one sweep.Run over jobs into a JSONL file; times are
// reference-speed (calib.go), slowdown is what they were divided by.
type sweepPass struct {
	wallS      float64
	slowdown   float64
	allocBytes uint64
	jobMS      []float64 // Event.Elapsed of done events
	recs       []sweep.Record
}

func runSweepPass(clk *hostClock, jobs []sweep.Job, outPath string, wrap func(sweep.Sink) sweep.Sink) (sweepPass, error) {
	var pass sweepPass
	file, err := sweep.OpenJSONL(outPath)
	if err != nil {
		return pass, err
	}
	var sink sweep.Sink = file
	if wrap != nil {
		sink = wrap(file)
	}
	var mu sync.Mutex
	progress := func(ev sweep.Event) {
		if ev.Type == sweep.EventDone {
			mu.Lock()
			pass.jobMS = append(pass.jobMS, ms(ev.Elapsed))
			mu.Unlock()
		}
	}
	before := totalAlloc()
	var runErr error
	wallMS, slowdown := clk.timeBusy(func() {
		_, runErr = sweep.Run(context.Background(), jobs, sink, sweep.Options{Workers: nproc(), Progress: progress})
	})
	pass.wallS, pass.slowdown = wallMS/1000, slowdown
	pass.allocBytes = totalAlloc() - before
	for i := range pass.jobMS {
		pass.jobMS[i] /= slowdown
	}
	if err := file.Close(); err != nil {
		return pass, err
	}
	if runErr != nil {
		return pass, runErr
	}
	f, err := os.Open(outPath)
	if err != nil {
		return pass, err
	}
	defer f.Close()
	pass.recs, err = sweep.ReadRecords(f)
	return pass, err
}

// auditRecords counts every job as an operation - failed when it has no
// record, a failure record, or a deadlock - and returns the canonical
// records in the order given by fps, their digest, and the simulated cycles
// they stand for.
func auditRecords(rep *report, fps []string, recs []sweep.Record) (canon []sweep.Record, hexDigest string, cycles int64) {
	byFP := make(map[string]sweep.Record, len(recs))
	for _, r := range recs {
		byFP[r.Fingerprint] = r
	}
	dig := newDigest()
	for _, fp := range fps {
		r, ok := byFP[fp]
		var err error
		switch {
		case !ok:
			err = fmt.Errorf("no record")
		case r.Status != sweep.StatusOK:
			err = fmt.Errorf("status %s: %s", r.Status, r.Error)
		case r.Deadlocked:
			err = fmt.Errorf("deadlocked")
		}
		rep.op("job "+fp, err)
		if err != nil {
			continue
		}
		c := r.Canonical()
		canon = append(canon, c)
		dig.add(c)
		cycles += int64(r.Warmup) + int64(r.Measure)
	}
	return canon, dig.hex(), cycles
}

func fingerprints(jobs []sweep.Job) []string {
	fps := make([]string, len(jobs))
	for i, j := range jobs {
		fps[i] = j.Fingerprint()
	}
	return fps
}

// sameRecords reports whether two canonical record lists are byte-identical.
func sameRecords(a, b []sweep.Record) bool {
	return mustJSON(a) == mustJSON(b)
}

const sweepSetupReps = 3

// sweepSetUp is sweep_short's set-up - spec generation, parse, expansion -
// done several times so setup_s is a median.
func sweepSetUp(clk *hostClock, dir string, spec sweep.Spec) (jobs []sweep.Job, setupS float64, err error) {
	var setups []float64
	for i := 0; i < sweepSetupReps && err == nil; i++ {
		setups = append(setups, clk.time(func() { _, jobs, err = loadSpec(dir, spec) })/1000)
	}
	return jobs, median(setups), err
}

func sweepUntraced(p params, rep *report) error {
	dir, cleanup, err := workDir("sweep_short")
	if err != nil {
		return err
	}
	defer cleanup()
	jobs, setupS, err := sweepSetUp(p.clk, dir, sweepSpec(p.seed, p.count(fullSeeds, 2)))
	if err != nil {
		return err
	}
	pass, err := runSweepPass(p.clk, jobs, filepath.Join(dir, "out.jsonl"), nil)
	if err != nil {
		return err
	}
	_, hexDigest, cycles := auditRecords(rep, fingerprints(jobs), pass.recs)
	if cycles == 0 {
		return fmt.Errorf("no job completed")
	}
	rep.set("setup_s", setupS)
	rep.set("wall_s", pass.wallS)
	rep.set("sim_cycles_per_s", float64(cycles)/pass.wallS)
	rep.set("jobs_per_s", float64(len(pass.jobMS))/pass.wallS)
	rep.opLatency(pass.jobMS)
	rep.set("alloc_bytes_per_cycle", float64(pass.allocBytes)/float64(cycles))
	rep.digest = hexDigest
	return nil
}

// sweepTraced runs half the grid twice: once with the sink decorated and
// job events collected, once plain.
func sweepTraced(p params, rep *report) error {
	dir, cleanup, err := workDir("sweep_short")
	if err != nil {
		return err
	}
	defer cleanup()
	spec := sweepSpec(p.seed, max(1, p.count(fullSeeds, 2)/2))
	jobs, _, err := sweepSetUp(p.clk, dir, spec)
	if err != nil {
		return err
	}
	expandMS := p.clk.time(func() { _, _, err = spec.Expand() })
	if err != nil {
		return err
	}

	ts := &timedSink{}
	traced, err := runSweepPass(p.clk, jobs, filepath.Join(dir, "traced.jsonl"), func(s sweep.Sink) sweep.Sink {
		ts.inner = s
		return ts
	})
	if err != nil {
		return err
	}
	plain, err := runSweepPass(p.clk, jobs, filepath.Join(dir, "plain.jsonl"), nil)
	if err != nil {
		return err
	}
	fps := fingerprints(jobs)
	canonT, hexDigest, _ := auditRecords(rep, fps, traced.recs)
	canonP, _, _ := auditRecords(rep, fps, plain.recs)
	rep.check("3 traced == untraced", sameRecords(canonT, canonP), "canonical records differ between the decorated-sink pass and the plain pass")

	prof, err := workload.Get(jobs[0].Benchmark)
	if err != nil {
		return err
	}
	const builds = 20
	newMS := p.clk.time(func() {
		for i := 0; i < builds && err == nil; i++ {
			var sim *gpu.Simulator
			if sim, err = gpu.New(jobs[0].Cfg, prof); err == nil {
				sim.Close()
			}
		}
	}) / builds
	if err != nil {
		return err
	}
	if err := probeValidate(p, runSpecs["noc_bound"], rep); err != nil {
		return err
	}

	rep.set("sweep.expand_ms", expandMS)
	rep.set("sweep.pool_utilisation", sum(traced.jobMS)/1000/(traced.wallS*float64(nproc())))
	rep.set("sweep.sink_us_per_record", ratio(float64(ts.ns.Load())/1000/traced.slowdown, float64(ts.n.Load())))
	rep.set("gpu.new_ms.mesh8", newMS)
	rep.set("sweep.job_setup_share", ratio(newMS, median(traced.jobMS)))
	rep.set("gpu.trace_overhead_pct", pctOver(traced.wallS, plain.wallS))
	rep.digest = hexDigest
	rep.set("gpu.result_digest", hash48(hexDigest))
	return nil
}
