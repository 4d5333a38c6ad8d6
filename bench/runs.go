package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/workload"
)

// runSpec is one of the four run workloads: the same closed loop of
// gpu.New + RunContext, one simulation at a time, differing in the profile
// (which layer binds) and the mesh (which kernel steps it).
type runSpec struct {
	name    string
	profile string
	mesh16  bool

	// probes are the isolated per-layer measurements a traced run of this
	// workload carries: each sits on the workload where its layer should
	// show (see bench/README.md).
	probes []func(p params, rep *report, pass *tracedPass) error
}

var runSpecs = map[string]runSpec{
	"noc_bound":     {name: "noc_bound", profile: "KMN", probes: []func(params, *report, *tracedPass) error{probeNocIso, probeInstrumentation}},
	"write_heavy":   {name: "write_heavy", profile: "RAY", probes: []func(params, *report, *tracedPass) error{probeMC, probeDRAM}},
	"compute_bound": {name: "compute_bound", profile: "NQU", probes: []func(params, *report, *tracedPass) error{probeSM, probeWorkloadAndCache}},
	"mesh16_lanes":  {name: "mesh16_lanes", profile: "KMN", mesh16: true},
}

// fullRuns is the run count at the nominal 12 s: forty samples is what
// lets run_ms_p75 keep ten samples beyond it.
const fullRuns = 40

// laneWorkers is the kernel parallelism mesh16_lanes runs at.
func laneWorkers() int { return min(nproc(), 4) }

// config is the Table 2 system (8x8, 56 SMs, 8 MCs, bottom/XY/split) at the
// paper's run length, or the 16x16 scale-up that gives the lane-parallel
// kernel rows to partition.
func (s runSpec) config(seed uint64) config.Config {
	cfg := config.Default()
	cfg.Seed = seed
	cfg.WarmupCycles, cfg.MeasureCycles = 2000, 20000
	if s.mesh16 {
		cfg.NoC.Width, cfg.NoC.Height = 16, 16
		cfg.Core.NumSMs, cfg.Mem.NumMCs = 240, 16
		cfg.NoC.Workers = laneWorkers()
		cfg.WarmupCycles, cfg.MeasureCycles = 500, 3500
	}
	return cfg
}

func (s runSpec) meshTag() string {
	if s.mesh16 {
		return "mesh16"
	}
	return "mesh8"
}

// simSummary is what two runs of one configuration must agree on exactly:
// IPC and every flit count. It is also what result_digest hashes.
type simSummary struct {
	Metrics      stats.Metrics
	EjectedFlits [packet.NumTypes]int64
	FlitHops     int64
}

func summarize(res gpu.Result) simSummary {
	s := simSummary{Metrics: res.Metrics(), EjectedFlits: res.Net.EjectedFlits}
	for c := range res.Net.LinkFlits {
		for _, v := range res.Net.LinkFlits[c] {
			s.FlitHops += v
		}
	}
	return s
}

// digest accumulates a workload's canonical results.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) add(v any) { fmt.Fprintln(d.h, mustJSON(v)) }

func (d *digest) hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// hash48 folds a hex digest to a number a float64 holds exactly, so the
// digest can travel in the numeric metrics map.
func hash48(hexDigest string) float64 {
	b, err := hex.DecodeString(hexDigest)
	if err != nil || len(b) < 8 {
		return 0
	}
	return float64(binary.BigEndian.Uint64(b[:8]) >> 16)
}

// timedNet is the in-situ decorator: it replaces Simulator.Net, brackets
// Step with two monotonic clock reads, and forwards everything else through
// the embedded interface. SMs and MCs keep their direct reference to the
// real network for Inject, so nothing else is in the timed path and the run
// is bit-identical to an undecorated one.
type timedNet struct {
	noc.Interconnect

	ns, steps         int64
	measuring         bool
	measNS, measSteps int64

	// sample, when set, is called every sampleEvery measured cycles at the
	// cycle boundary - where occupancy gauges are read.
	sample func()
}

const sampleEvery = 1000

func (t *timedNet) Step() {
	start := time.Now()
	t.Interconnect.Step()
	d := int64(time.Since(start))
	t.ns += d
	t.steps++
	if t.measuring {
		t.measNS += d
		t.measSteps++
		if t.sample != nil && t.measSteps%sampleEvery == 0 {
			t.sample()
		}
	}
}

// EnableStats marks the measured window: RunContext turns collection on
// exactly when warm-up ends.
func (t *timedNet) EnableStats(on bool) {
	t.measuring = on
	t.Interconnect.EnableStats(on)
}

// gauges are the occupancy sums the decorator samples.
type gauges struct {
	samples                     int64
	flitsInFlight, mshrOcc, mcQ int64
	rowHits, rowMisses          int64
}

// runSample is one gpu.New + RunContext. Times are reference-speed
// milliseconds (see calib.go); slowdown is what they were divided by.
type runSample struct {
	newMS, runMS float64
	slowdown     float64
	allocBytes   uint64
	cycles       int64
	sum          simSummary
	res          gpu.Result
}

// oneRun builds one simulator and runs it to completion. tn, when non-nil,
// is installed over sim.Net first; g, when non-nil, receives the sampled
// gauges.
func oneRun(clk *hostClock, cfg config.Config, prof workload.Profile, tn *timedNet, g *gauges) (runSample, error) {
	before := clk.slowdown()
	start := time.Now()
	sim, err := gpu.New(cfg, prof)
	if err != nil {
		return runSample{}, err
	}
	defer sim.Close()
	newMS := ms(time.Since(start))

	if tn != nil {
		tn.Interconnect = sim.Net
		if g != nil {
			tn.sample = func() {
				g.samples++
				g.flitsInFlight += int64(sim.Net.FlitsInFlight())
				for _, sm := range sim.SMs {
					g.mshrOcc += int64(sm.MSHR().Occupancy())
				}
				for _, m := range sim.MCs {
					g.mcQ += int64(m.QueueLen())
				}
			}
		}
		sim.Net = tn
	}
	s, err := runSim(sim)
	s.slowdown = (before + clk.slowdown()) / 2
	clk.samples = append(clk.samples, s.slowdown)
	s.newMS, s.runMS = newMS/s.slowdown, s.runMS/s.slowdown
	if err == nil && g != nil {
		for _, m := range sim.MCs {
			g.rowHits += m.DRAM().RowHits
			g.rowMisses += m.DRAM().RowMisses
		}
	}
	return s, err
}

// runSim times one RunContext, in raw milliseconds. An operation fails on
// an error, a deadlock, or an interconnect invariant violated after the run.
func runSim(sim *gpu.Simulator) (runSample, error) {
	var s runSample
	before := totalAlloc()
	start := time.Now()
	res, err := sim.RunContext(context.Background())
	s.runMS = ms(time.Since(start))
	s.allocBytes = totalAlloc() - before
	if err != nil {
		return s, err
	}
	if res.Deadlocked {
		return s, fmt.Errorf("deadlocked after %d cycles", res.Cycles)
	}
	if err := sim.Net.CheckInvariants(); err != nil {
		return s, fmt.Errorf("invariants after run: %w", err)
	}
	s.cycles = int64(sim.Cfg.WarmupCycles) + res.Cycles
	s.sum = summarize(res)
	s.res = res
	return s, nil
}

// runUntraced is the end-to-end measurement of a run workload: n
// simulations back to back, seeds S..S+n-1, nothing instrumented.
func runUntraced(p params, spec runSpec, rep *report) error {
	prof, err := workload.Get(spec.profile)
	if err != nil {
		return err
	}
	n := p.count(fullRuns, 2)

	// One discarded run first: the heap is grown and the pages are touched
	// before anything is timed, and that cost is reported as set-up.
	warm, err := oneRun(p.clk, spec.config(p.seed), prof, nil, nil)
	if err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}
	warmS := (warm.newMS + warm.runMS) / 1000

	dig := newDigest()
	var newMS, runMS []float64
	var cycles int64
	var alloc uint64
	for i := 0; i < n; i++ {
		cfg := spec.config(p.seed + uint64(i))
		s, err := oneRun(p.clk, cfg, prof, nil, nil)
		rep.op(fmt.Sprintf("run seed=%d", cfg.Seed), err)
		if err != nil {
			continue
		}
		newMS = append(newMS, s.newMS)
		runMS = append(runMS, s.runMS)
		cycles += s.cycles
		alloc += s.allocBytes
		dig.add(s.sum)
	}
	if len(runMS) == 0 {
		return fmt.Errorf("no run completed")
	}

	wall := sum(runMS) / 1000
	// The n constructions are charged at their median: one collection
	// landing inside a 4 ms gpu.New would otherwise move the whole sum.
	rep.set("setup_s", warmS+float64(n)*median(newMS)/1000)
	rep.set("wall_s", wall)
	rep.set("sim_cycles_per_s", float64(cycles)/wall)
	rep.set("jobs_per_s", float64(len(runMS))/wall)
	rep.opLatency(runMS)
	rep.set("alloc_bytes_per_cycle", float64(alloc)/float64(cycles))
	rep.digest = dig.hex()
	return nil
}

// tracedPass is what the in-situ pass of a traced run workload hands to the
// isolated probes that follow it.
type tracedPass struct {
	spec    runSpec
	prof    workload.Profile
	plainMS []float64 // untraced run times, same seeds
	pairs   int
}

// runTraced is the per-layer measurement of a run workload. It runs half
// the count twice - every seed once through the timing decorator and once
// plain - so a traced run costs what an untraced one does, the decorator's
// overhead is the ratio of the two, and check 3 (traced == untraced) covers
// every seed. mesh16_lanes adds a Workers=1 twin per seed for the lane
// speed-up and check 2.
func runTraced(p params, spec runSpec, rep *report) error {
	prof, err := workload.Get(spec.profile)
	if err != nil {
		return err
	}
	pairs := max(1, p.count(fullRuns, 2)/2)
	if _, err := oneRun(p.clk, spec.config(p.seed), prof, nil, nil); err != nil {
		return fmt.Errorf("warm-up run: %w", err)
	}

	dig := newDigest()
	var g gauges
	var tracedMS, plainMS, serialMS, newMS []float64
	var netNS, measNS float64
	var netSteps, cycles, serialCycles int64
	var hops, ejected, instr, reqFlits, repFlits int64
	var l1h, l1m, l2h, l2m int64
	var ipc, repLat float64
	tracedDiffers, serialDiffers := 0, 0

	for i := 0; i < pairs; i++ {
		cfg := spec.config(p.seed + uint64(i))
		tn := &timedNet{}
		var st, su runSample
		var errT, errU error
		// Alternate which side goes first so drift cancels in the ratio.
		if i%2 == 0 {
			st, errT = oneRun(p.clk, cfg, prof, tn, &g)
			su, errU = oneRun(p.clk, cfg, prof, nil, nil)
		} else {
			su, errU = oneRun(p.clk, cfg, prof, nil, nil)
			st, errT = oneRun(p.clk, cfg, prof, tn, &g)
		}
		rep.op(fmt.Sprintf("traced run seed=%d", cfg.Seed), errT)
		rep.op(fmt.Sprintf("plain run seed=%d", cfg.Seed), errU)
		if errT != nil || errU != nil {
			continue
		}
		if st.sum != su.sum {
			tracedDiffers++
		}
		tracedMS = append(tracedMS, st.runMS)
		plainMS = append(plainMS, su.runMS)
		newMS = append(newMS, st.newMS, su.newMS)
		netNS += float64(tn.ns) / st.slowdown
		netSteps += tn.steps
		measNS += float64(tn.measNS) / st.slowdown
		cycles += st.cycles
		hops += st.sum.FlitHops
		for _, v := range st.sum.EjectedFlits {
			ejected += v
		}
		instr += st.sum.Metrics.Instructions
		reqFlits += st.res.Net.ClassFlits(packet.Request)
		repFlits += st.res.Net.ClassFlits(packet.Reply)
		repLat += st.sum.Metrics.RepNetLatencyMean
		ipc += st.res.IPC
		l1h, l1m = l1h+st.res.GPU.L1Hits, l1m+st.res.GPU.L1Misses
		l2h, l2m = l2h+st.res.GPU.L2Hits, l2m+st.res.GPU.L2Misses
		dig.add(st.sum)

		if spec.mesh16 {
			serial := cfg
			serial.NoC.Workers = 1
			s1, err := oneRun(p.clk, serial, prof, nil, nil)
			rep.op(fmt.Sprintf("serial twin seed=%d", cfg.Seed), err)
			if err != nil {
				continue
			}
			if s1.sum != su.sum {
				serialDiffers++
			}
			serialMS = append(serialMS, s1.runMS)
			serialCycles += s1.cycles
		}
	}
	if len(tracedMS) == 0 {
		return fmt.Errorf("no traced run completed")
	}
	runs := float64(len(tracedMS))

	rep.check("3 traced == untraced", tracedDiffers == 0,
		fmt.Sprintf("%d of %d seeds gave different IPC or flit counts under the timing decorator", tracedDiffers, len(tracedMS)))

	stepNS := sum(tracedMS) * 1e6 / float64(cycles)
	netStepNS := netNS / float64(netSteps)
	rep.set("gpu.step_ns", stepNS)
	rep.set("noc.step_ns", netStepNS)
	rep.set("gpu.tick_ns", stepNS-netStepNS)
	rep.set("gpu.tick_share", (stepNS-netStepNS)/stepNS)
	rep.set("noc.step_share", netStepNS/stepNS)
	rep.set("gpu.trace_overhead_pct", pctOver(median(tracedMS), median(plainMS)))
	rep.set("gpu.new_ms."+spec.meshTag(), median(newMS))
	rep.set("gpu.sim_ipc", ipc/runs)
	rep.set("gpu.sim_instr", float64(instr))
	rep.set("noc.flit_hops", float64(hops))
	rep.set("noc.flits_ejected", float64(ejected))
	rep.set("noc.ns_per_flit_hop", ratio(measNS, float64(hops)))
	rep.set("noc.sim_reply_request_ratio", ratio(float64(repFlits), float64(reqFlits)))
	rep.set("noc.sim_reply_net_latency_mean", repLat/runs)
	rep.set("smcore.sim_l1_miss_rate", ratio(float64(l1m), float64(l1h+l1m)))
	rep.set("mc.sim_l2_miss_rate", ratio(float64(l2m), float64(l2h+l2m)))
	rep.set("dram.sim_row_hit_rate", ratio(float64(g.rowHits), float64(g.rowHits+g.rowMisses)))
	if g.samples > 0 {
		cfg := spec.config(p.seed)
		rep.set("noc.flits_in_flight_mean", float64(g.flitsInFlight)/float64(g.samples))
		rep.set("smcore.sim_mshr_occupancy_mean", float64(g.mshrOcc)/float64(g.samples)/float64(cfg.Core.NumSMs))
		rep.set("mc.sim_queue_len_mean", float64(g.mcQ)/float64(g.samples)/float64(cfg.Mem.NumMCs))
	}
	rep.digest = dig.hex()
	rep.set("gpu.result_digest", hash48(rep.digest))

	if spec.mesh16 && len(serialMS) > 0 {
		rep.check("2 Workers=1 == Workers=N", serialDiffers == 0,
			fmt.Sprintf("%d of %d seeds gave different IPC or stats.Net counters at Workers=1", serialDiffers, len(serialMS)))
		rep.set("noc.lanes_speedup", median(serialMS)/median(plainMS))
		rep.set("noc.mesh16_serial_ns_per_cycle", sum(serialMS)*1e6/float64(serialCycles))
		rep.notef("lanes: Workers=%d vs Workers=1, %d seeds each", laneWorkers(), len(serialMS))
	}

	if err := probeValidate(p, spec, rep); err != nil {
		return err
	}
	pass := &tracedPass{spec: spec, prof: prof, plainMS: plainMS, pairs: pairs}
	for _, probe := range spec.probes {
		if err := probe(p, rep, pass); err != nil {
			return err
		}
	}
	return nil
}
