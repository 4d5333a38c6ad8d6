package main

import (
	"fmt"
	"runtime"

	"gpgpunoc/internal/cache"
	"gpgpunoc/internal/config"
	"gpgpunoc/internal/dram"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mc"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/smcore"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/vc"
	"gpgpunoc/internal/workload"
)

// The isolated probes: each drives one layer's public API alone, with
// inputs recorded from the seeded generator before the clock starts, so the
// number is the layer's and nothing else's. They run in the traced set, on
// the workload where the layer should show.

const (
	isoWarmCycles = 2000
	isoCycles     = 20000
)

// keep defeats dead-code elimination of probe loops whose results are
// otherwise unused.
var keep uint64

// nsPer times f through the host clock and returns reference-speed
// nanoseconds per one of its n units of work.
func nsPer(clk *hostClock, n int, f func()) float64 {
	return clk.time(f) * 1e6 / float64(n)
}

// stubNet is the Interconnect the isolated SM and MC probes run against:
// Inject always accepts and hands the packet to the probe. SMs and MCs call
// nothing else on an Interconnect; if that ever changes the nil embedded
// interface panics and the probe says so.
type stubNet struct {
	noc.Interconnect
	sent []*packet.Packet
}

func (s *stubNet) Inject(p *packet.Packet) bool {
	s.sent = append(s.sent, p)
	return true
}

// recordLines records n line-aligned global-memory addresses of the wanted
// kind from one warp's generated stream.
func recordLines(prof workload.Profile, seed uint64, kind workload.Kind, lineBytes, n int) ([]uint64, error) {
	gen := workload.NewGenerator(prof, seed, 0, 0, 48)
	out := make([]uint64, 0, n)
	for tries := 0; len(out) < n; tries++ {
		if tries > 1000*n {
			return nil, fmt.Errorf("profile %s generates no instructions of kind %d", prof.Name, kind)
		}
		if in := gen.Next(); in.Kind == kind {
			out = append(out, in.Addr&^uint64(lineBytes-1))
		}
	}
	return out, nil
}

// probeValidate times cfg.Validate - the overlap test plus the CDG prover -
// which every gpu.New and every expanded sweep job pays.
func probeValidate(p params, spec runSpec, rep *report) error {
	cfg := spec.config(1)
	reps := 20
	if spec.mesh16 {
		reps = 5
	}
	var err error
	total := p.clk.time(func() {
		for i := 0; i < reps && err == nil; i++ {
			err = cfg.Validate()
		}
	})
	rep.set("core.validate_ms."+spec.meshTag(), total/float64(reps))
	return err
}

// probeNocIso steps a bare 8x8 network under uniform 5-flit traffic at
// three injection rates (flits per node per cycle): sparse, the knee, and
// saturated. It separates the active-set kernel's sparse and dense modes.
func probeNocIso(p params, rep *report, _ *tracedPass) error {
	for _, r := range []struct {
		tag  string
		rate float64
	}{{"rate05", 0.05}, {"rate15", 0.15}, {"rate40", 0.40}} {
		ns, allocs := nocIsoStep(p.clk, r.rate, p.seed)
		rep.set("noc.iso_step_ns."+r.tag, ns)
		if r.tag == "rate15" {
			rep.set("noc.iso_allocs_per_step", allocs)
		}
	}
	return nil
}

func nocIsoStep(clk *hostClock, rate float64, seed uint64) (nsPerStep, allocsPerStep float64) {
	cfg := config.Default().NoC
	n := noc.New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	defer n.Close()
	nodes := cfg.Width * cfg.Height
	for i := 0; i < nodes; i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}

	// The schedule - which packets enter on which cycle - is built first.
	r := rng.New(seed)
	perNode := rate / float64(packet.LongFlits)
	total := isoWarmCycles + isoCycles
	schedule := make([][]*packet.Packet, total)
	id := uint64(0)
	for c := range schedule {
		for src := 0; src < nodes; src++ {
			if !r.Bool(perNode) {
				continue
			}
			id++
			schedule[c] = append(schedule[c], &packet.Packet{
				ID: id, Type: packet.ReadReply, Src: src, Dst: r.Intn(nodes), Flits: packet.LongFlits,
			})
		}
	}

	step := func(c int) {
		for _, pkt := range schedule[c] {
			n.Inject(pkt) // a full injection queue drops the packet: saturation
		}
		n.Step()
	}
	for c := 0; c < isoWarmCycles; c++ {
		step(c)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	nsPerStep = nsPer(clk, isoCycles, func() {
		for c := isoWarmCycles; c < total; c++ {
			step(c)
		}
	})
	runtime.ReadMemStats(&m1)
	return nsPerStep, float64(m1.Mallocs-m0.Mallocs) / isoCycles
}

// probeInstrumentation measures what the two always-available instruments
// cost a noc_bound run: epoch telemetry, and the flight recorder attached
// the way gpu.Run ships it. The baseline is the plain runs of the in-situ
// pass, same seeds.
func probeInstrumentation(p params, rep *report, pass *tracedPass) error {
	runs := max(2, pass.pairs/4)
	var telMS, flightMS []float64
	for i := 0; i < runs; i++ {
		cfg := pass.spec.config(p.seed + uint64(i))

		sim, err := gpu.NewInstrumented(cfg, pass.prof, gpu.Instrumentation{TelemetryEpoch: 1000})
		if err != nil {
			return err
		}
		runMS := p.clk.time(func() { _, err = runSim(sim) })
		sim.Close()
		rep.op(fmt.Sprintf("telemetry run seed=%d", cfg.Seed), err)
		if err == nil {
			telMS = append(telMS, runMS)
		}

		sim, err = gpu.New(cfg, pass.prof)
		if err != nil {
			return err
		}
		sim.AttachFlight(4096, "")
		runMS = p.clk.time(func() { _, err = runSim(sim) })
		sim.Close()
		rep.op(fmt.Sprintf("flight-recorder run seed=%d", cfg.Seed), err)
		if err == nil {
			flightMS = append(flightMS, runMS)
		}
	}
	base := median(pass.plainMS[:min(runs, len(pass.plainMS))])
	rep.set("telemetry.overhead_pct", pctOver(median(telMS), base))
	rep.set("fleetobs.flight_overhead_pct", pctOver(median(flightMS), base))
	return nil
}

// probeSM ticks the workload's SMs against the stub network. Read requests
// are answered through SM.Sink() a fixed 200 cycles later, so the cores see
// a memory system with constant latency and no back-pressure: what is left
// is the SM's own tick. Reported per cycle (all SMs), to set beside
// gpu.tick_ns.
func probeSM(p params, rep *report, pass *tracedPass) error {
	const replyDelay = 200
	cfg := pass.spec.config(p.seed)
	pl, err := placement.New(cfg.Placement, mesh.New(cfg.NoC.Width, cfg.NoC.Height), cfg.Mem.NumMCs)
	if err != nil {
		return err
	}
	stub := &stubNet{}
	var g stats.GPU
	var nextID uint64
	cores := pl.Cores()
	sms := make([]*smcore.SM, cfg.Core.NumSMs)
	sinks := make(map[int]noc.Sink, len(sms))
	for i := range sms {
		sms[i] = smcore.New(i, cores[i], cfg.Core, cfg.Mem, pass.prof, cfg.Seed+uint64(i), stub, pl, &g, &nextID)
		sinks[int(cores[i])] = sms[i].Sink()
	}

	// due[c%replyDelay] holds the read requests sent replyDelay cycles
	// before cycle c.
	due := make([][]*packet.Packet, replyDelay)
	cycle := func(now int64) {
		for _, sm := range sms {
			sm.Tick(now)
		}
		slot := now % replyDelay
		for _, req := range due[slot] {
			reply := &packet.Packet{ID: req.ID, Type: packet.ReadReply, Src: req.Dst, Dst: req.Src, Flits: packet.LongFlits, Access: req.Access}
			sinks[req.Src](packet.Flit{Pkt: reply, Seq: reply.Flits - 1, Tail: true})
		}
		due[slot] = due[slot][:0]
		for _, req := range stub.sent {
			if req.Type == packet.ReadRequest {
				due[slot] = append(due[slot], req)
			}
		}
		stub.sent = stub.sent[:0]
	}
	now := int64(0)
	for ; now < isoWarmCycles; now++ {
		cycle(now)
	}
	rep.set("smcore.iso_tick_ns", nsPer(p.clk, isoCycles, func() {
		for ; now < isoWarmCycles+isoCycles; now++ {
			cycle(now)
		}
	}))
	keep += uint64(g.Instructions)
	return nil
}

// probeWorkloadAndCache times the three leaf calls under an SM tick.
func probeWorkloadAndCache(p params, rep *report, pass *tracedPass) error {
	const calls = 1_000_000
	gen := workload.NewGenerator(pass.prof, p.seed, 0, 0, 48)
	rep.set("workload.next_ns", nsPer(p.clk, calls, func() {
		for i := 0; i < calls; i++ {
			keep += gen.Next().Addr
		}
	}))

	mem := config.Default().Mem
	lines, err := recordLines(pass.prof, p.seed, workload.Load, mem.LineBytes, 100_000)
	if err != nil {
		return err
	}
	l1 := cache.New(mem.L1DataBytes, mem.L1Ways, mem.LineBytes)
	rep.set("cache.access_ns", nsPer(p.clk, calls, func() {
		for round := 0; round < calls/len(lines); round++ {
			for _, a := range lines {
				if l1.Access(a, false).Hit {
					keep++
				}
			}
		}
	}))

	// Allocate+Fill pairs with half the file outstanding, on distinct lines
	// (a repeated line would merge instead of allocating).
	mshr := cache.NewMSHR(mem.L1MSHRs)
	batch := mem.L1MSHRs / 2
	line := uint64(0)
	rep.set("cache.mshr_op_ns", nsPer(p.clk, calls, func() {
		for done := 0; done < calls; done += batch {
			first := line
			for i := 0; i < batch; i++ {
				mshr.Allocate(line, i)
				line += uint64(mem.LineBytes)
			}
			for l := first; l < line; l += uint64(mem.LineBytes) {
				keep += uint64(len(mshr.Fill(l)))
			}
		}
	}))
	return nil
}

// probeMC drives one memory controller - Sink for arriving flits, Tick every
// cycle - against the stub, once with a read-only and once with a write-only
// request stream arriving at the controller's service rate. Reported per MC
// per cycle.
func probeMC(p params, rep *report, pass *tracedPass) error {
	cfg := pass.spec.config(p.seed)
	for _, s := range []struct {
		tag  string
		typ  packet.Type
		kind workload.Kind
	}{{"read", packet.ReadRequest, workload.Load}, {"write", packet.WriteRequest, workload.Store}} {
		lines, err := recordLines(pass.prof, p.seed, s.kind, cfg.Mem.LineBytes, isoCycles)
		if err != nil {
			return err
		}
		rep.set("mc.iso_tick_ns."+s.tag, mcIsoTick(p.clk, cfg.Mem, s.typ, lines))
	}
	return nil
}

func mcIsoTick(clk *hostClock, mem config.Mem, typ packet.Type, lines []uint64) float64 {
	stub := &stubNet{}
	var g stats.GPU
	now := int64(0)
	ctrl := mc.New(0, 0, mem, stub, &g)
	sink := ctrl.Sink(func() int64 { return now })
	flits := packet.Length(typ)
	next := 0
	cycle := func() {
		if now%int64(mem.MCServicePeriod) == 0 {
			req := &packet.Packet{ID: uint64(next + 1), Type: typ, Src: 1, Dst: 0, Flits: flits,
				Access: packet.MemAccess{Addr: lines[next%len(lines)]}, CreatedAt: now}
			next++
			// A refused head flit (request queue full) drops the request.
			if sink(packet.Flit{Pkt: req, Head: true, Tail: flits == 1}) {
				for seq := 1; seq < flits; seq++ {
					sink(packet.Flit{Pkt: req, Seq: seq, Tail: seq == flits-1})
				}
			}
		}
		ctrl.Tick(now)
		stub.sent = stub.sent[:0]
	}
	for ; now < isoWarmCycles; now++ {
		cycle()
	}
	ns := nsPer(clk, isoCycles, func() {
		for ; now < isoWarmCycles+isoCycles; now++ {
			cycle()
		}
	})
	keep += uint64(ctrl.ReadsServed + ctrl.WritesServed)
	return ns
}

// probeDRAM drives one DRAM channel: an access every fourth cycle on the
// recorded line stream, Tick and Completed every cycle.
func probeDRAM(p params, rep *report, pass *tracedPass) error {
	mem := config.Default().Mem
	lines, err := recordLines(pass.prof, p.seed, workload.Load, mem.LineBytes, isoCycles)
	if err != nil {
		return err
	}
	d := dram.New(dram.DefaultParams())
	cycle := func(now int64) {
		if now%4 == 0 {
			d.Enqueue(uint64(now), lines[int(now/4)%len(lines)], now)
		}
		d.Tick(now)
		keep += uint64(len(d.Completed()))
	}
	now := int64(0)
	for ; now < isoWarmCycles; now++ {
		cycle(now)
	}
	rep.set("dram.tick_ns", nsPer(p.clk, isoCycles, func() {
		for ; now < isoWarmCycles+isoCycles; now++ {
			cycle(now)
		}
	}))
	return nil
}
