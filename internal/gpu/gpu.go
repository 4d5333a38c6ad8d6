// Package gpu assembles the full simulated system: 56 SM cores and 8 memory
// controllers (Table 2) on the 2D-mesh NoC, running a workload profile. It
// is the top of the substrate stack and what every IPC experiment in the
// paper's evaluation drives.
package gpu

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/mc"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/smcore"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/workload"
)

// Simulator is one configured GPU system.
type Simulator struct {
	Cfg   config.Config
	Prof  workload.Profile
	Net   noc.Interconnect
	Place *placement.Placement

	// SanitizeEvery, when > 0, makes RunContext validate the interconnect's
	// internal invariants (credit accounting, flit conservation) and every
	// sleeping endpoint's reason to sleep every SanitizeEvery cycles and
	// abort the run with an error on the first violation. Sampling keeps the
	// cost proportional to 1/N; zero (the default) disables the sanitizer
	// entirely.
	SanitizeEvery int

	// Tel, when non-nil (see Instrumentation.TelemetryEpoch), is the
	// cycle-domain observability subsystem: the run loop drives its epoch
	// sampler and the result carries it for export. Nil costs one branch
	// per cycle.
	Tel *telemetry.Telemetry

	// Spans, when non-nil (see Instrumentation.Spans), is the per-packet
	// span collector: every probe site in the fabric and the memory system
	// records lifecycle events for the deterministic sample of packets it
	// selects. Nil-gated like Tel.
	Spans *obs.Spans

	// Flight, when non-nil (see AttachFlight), is the flight recorder,
	// attached only on request: a bounded ring
	// of recent cycle-domain events (phase entries, 512-cycle checkpoints,
	// invariant checks, watchdog, panic) dumped as JSONL post-mortem on
	// panic, invariant failure, or watchdog trip.
	// Recording never reads wall clock or scheduler state and never feeds
	// back into simulation, so results stay bit-identical with it attached.
	Flight *fleetobs.Recorder

	// FlightDir is where post-mortem dumps land ("" disables dumping; the
	// ring still records for Result.Flight).
	FlightDir string

	SMs []*smcore.SM
	MCs []*mc.MC

	// endpoints maps every node to the SM or MC sitting on it (nil for an
	// unpopulated tile).
	endpoints []ticker

	// counters is the core-side counter block every SM and MC adds into;
	// ids holds one packet-ID counter per SM.
	counters stats.GPU
	ids      []uint64
	cycle    int64
}

// ticker is what tick needs of an endpoint; *smcore.SM and *mc.MC both are
// one.
type ticker interface {
	Tick(now int64) bool
}

// smIDBase is where SM i's private packet-ID stream starts: streams are
// 2^40 IDs apart, so IDs of different SMs never collide, and request IDs
// stay far below bit 63, which marks a reply (mc.replyIDBit).
func smIDBase(i int) uint64 { return uint64(i+1) << 40 }

// smSeed is SM i's workload seed under the run seed.
func smSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9e3779b9 }

// New builds a simulator for cfg running the named workload profile: it
// allocates the storage cfg's shape describes — network, SMs and MCs each
// end their construction with their own Reset — then wires it as Reset
// does, placing the endpoints on the design point's tiles, and reset sets
// the simulator's own run state. Validation — structural and
// protocol-deadlock safety — is centralized in cfg.Validate; set
// cfg.AllowUnsafe to simulate a deliberately unsafe design and watch it
// wedge. Placement, routing algorithm and VC assigner come from the design
// point's shared, read-only core.Structure.
func New(cfg config.Config, prof workload.Profile) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := prof.Validate(); err != nil {
		return nil, err
	}
	st, err := core.StructureFor(cfg)
	if err != nil {
		return nil, err
	}
	pl := st.Placement

	net := noc.NewInterconnect(cfg.NoC, st.Algorithm, st.Assigner)

	s := &Simulator{Cfg: cfg, Prof: prof, Net: net}

	cores := pl.Cores()
	if len(cores) < cfg.Core.NumSMs {
		return nil, fmt.Errorf("gpu: placement leaves %d core tiles for %d SMs", len(cores), cfg.Core.NumSMs)
	}
	s.endpoints = make([]ticker, st.Mesh.NumNodes())
	net.SetStage(s.tick)
	s.ids = make([]uint64, cfg.Core.NumSMs)
	slots := make([]smcore.Slot, cfg.Core.NumSMs)
	for i := range slots {
		slots[i] = smcore.Slot{Index: i, Node: cores[i], Seed: smSeed(cfg.Seed, i), NextID: &s.ids[i]}
	}
	s.SMs = smcore.Build(slots, cfg.Core, cfg.Mem, prof, net, pl, &s.counters)
	for i := range pl.MCs {
		s.MCs = append(s.MCs, mc.New(i, pl.MCNode(i), cfg.Mem, net, &s.counters))
	}
	s.place(pl)
	s.reset(cfg, prof)
	return s, nil
}

// place puts the endpoints on pl's tiles — SM i on the i-th core tile, MC i
// on its own — and installs each tile's sink, inject wake and endpoint; an
// unpopulated core tile (none in the 56+8 system, but possible in
// ablations) absorbs anything misrouted to it. When pl puts the MCs where
// the current placement has them, every endpoint stays where it is and only
// the placement the SMs address changes.
func (s *Simulator) place(pl *placement.Placement) {
	moved := s.Place == nil || !slices.Equal(s.Place.MCs, pl.MCs)
	s.Place = pl
	if !moved {
		for _, sm := range s.SMs {
			sm.Rebind(sm.Node, pl)
		}
		return
	}
	cores := pl.Cores()
	clear(s.endpoints)
	for _, node := range cores[len(s.SMs):] {
		s.Net.SetSink(node, func(packet.Flit) bool { return true })
		s.Net.SetInjectWake(node, nil)
	}
	for i, sm := range s.SMs {
		sm.Rebind(cores[i], pl)
		s.endpoints[sm.Node] = sm
		s.Net.SetSink(sm.Node, sm.Sink())
		s.Net.SetInjectWake(sm.Node, sm.WakeInject)
	}
	for i, m := range s.MCs {
		m.Node = pl.MCNode(i)
		s.endpoints[m.Node] = m
		s.Net.SetSink(m.Node, m.Sink(func() int64 { return s.cycle }))
		s.Net.SetInjectWake(m.Node, m.WakeInject)
	}
}

// shape projects cfg onto what a simulator's storage is built for: the
// mesh, VCs and their depth, physical subnets, SM and MC counts, cache and
// queue geometry. It drops what Reset rewinds (Seed, WarmupCycles,
// MeasureCycles) and what it rewires: the design axes placement, routing,
// VC policy and AsymmetricRequestVCs.
func shape(cfg config.Config) config.Config {
	cfg.Seed, cfg.WarmupCycles, cfg.MeasureCycles = 0, 0, 0
	cfg.Placement, cfg.NoC.Routing, cfg.NoC.VCPolicy, cfg.NoC.AsymmetricRequestVCs = "", "", "", 0
	return cfg
}

// Reset rewinds the simulator to what New(cfg, prof) builds, keeping its
// storage: caches, queues, buffers and the endpoints' packet free lists.
// cfg must have the simulator's shape — its storage; placement, routing,
// VC policy, seed and run length are free — and the simulator must carry
// no telemetry, spans or flight recorder, which are not rewound
// (SanitizeEvery is kept). Reset installs cfg's design point: the
// network's next-hop table and VC ranges (Interconnect.Rewire) and, when
// the MCs move, every endpoint on its new tile. Results of earlier runs
// stay valid: the network hands its statistics collector to the result and
// starts the next run with a new one. Call at a cycle boundary.
func (s *Simulator) Reset(cfg config.Config, prof workload.Profile) error {
	switch {
	case shape(cfg) != shape(s.Cfg):
		return fmt.Errorf("gpu: Reset to a different shape than the simulator was built for")
	case s.Tel != nil || s.Spans != nil || s.Flight != nil:
		return fmt.Errorf("gpu: Reset of an instrumented simulator")
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if err := prof.Validate(); err != nil {
		return err
	}
	st, err := core.StructureFor(cfg)
	if err != nil {
		return err
	}
	s.Net.Reset(s.reclaim)
	for _, m := range s.MCs {
		m.Reset(s.reclaim)
	}
	for i, sm := range s.SMs {
		sm.Reset(prof, smSeed(cfg.Seed, i))
	}
	s.Net.Rewire(st.Algorithm, st.Assigner)
	s.place(st.Placement)
	s.reset(cfg, prof)
	return nil
}

// reset sets the simulator's own run state — counters zeroed, every SM's
// packet IDs rewound, cycle 0 — over a network and endpoints at theirs:
// their constructors end with their Reset, and Reset rewinds them first.
func (s *Simulator) reset(cfg config.Config, prof workload.Profile) {
	s.Cfg, s.Prof = cfg, prof
	s.counters = stats.GPU{}
	for i := range s.ids {
		s.ids[i] = smIDBase(i)
	}
	s.cycle = 0
}

// reclaim gives a packet Reset took out of flight to the SM whose
// transaction it carries: an unfinished transaction holds one packet of
// that SM's storage (an MC swaps the request's for the reply's).
func (s *Simulator) reclaim(p *packet.Packet) { s.SMs[p.Access.SM].Reclaim(p) }

// NewInstrumented is New plus observability applied at construction, before
// the first cycle: the invariant sanitizer when inst.SanitizeEvery > 0,
// telemetry when inst.TelemetryEpoch > 0, span tracing when inst.Spans.
// Instrumentation is a construction-time decision; the flight recorder is
// attached only by AttachFlight.
func NewInstrumented(cfg config.Config, prof workload.Profile, inst Instrumentation) (*Simulator, error) {
	s, err := New(cfg, prof)
	if err != nil {
		return nil, err
	}
	s.SanitizeEvery = inst.SanitizeEvery
	if inst.TelemetryEpoch > 0 {
		s.attachTelemetry(inst.TelemetryEpoch)
	}
	if inst.Spans {
		if _, err := s.attachSpans(inst.SpanRate); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// AttachFlight installs the flight recorder retaining the most recent
// `size` events (rounded up to a power of two), with post-mortem dumps
// written under dir ("" keeps the ring in memory only). Call once, before
// the first cycle. It is the one way to attach the recorder: benchmarks
// attach it to an already-built simulator to measure its overhead in place.
func (s *Simulator) AttachFlight(size int, dir string) *fleetobs.Recorder {
	if s.Flight != nil {
		panic("gpu: flight recorder attached twice")
	}
	r := fleetobs.NewRecorder(size)
	s.Flight = r
	s.FlightDir = dir
	return r
}

// Instrumentation selects the observability to build into a simulator at
// construction. The zero value instruments nothing.
type Instrumentation struct {
	// SanitizeEvery > 0 validates the interconnect's and the endpoints'
	// internal invariants every SanitizeEvery cycles, aborting the run with
	// an error on the first violation.
	SanitizeEvery int

	// TelemetryEpoch > 0 attaches the cycle-domain telemetry subsystem
	// sampling every TelemetryEpoch cycles; the result's Tel field carries
	// the collected series for export.
	TelemetryEpoch int64

	// Spans attaches per-packet span tracing at SpanRate (the fraction of
	// request packets sampled; 0 installs the collector but samples
	// nothing).
	Spans    bool
	SpanRate float64
}

// Close does nothing: a simulator holds no goroutine or other resource to
// release. It is kept only for callers written against the retired
// lane-parallel kernel.
func (s *Simulator) Close() {}

// Totals returns the core-side counters since the last Reset, after charging
// every SM the ticks it skipped up to this cycle boundary. Call only at a
// cycle boundary (ticks and sinks write the counters mid-cycle).
func (s *Simulator) Totals() stats.GPU {
	for _, sm := range s.SMs {
		sm.Settle(s.cycle)
	}
	return s.counters
}

// attachTelemetry instruments the whole system with the cycle-domain
// observability subsystem sampling every epochLen cycles: fabric probes
// (per-link flit counters by class, VC occupancy, stall attribution,
// latency decomposition), per-MC and DRAM state, and aggregate core-side
// counters. Call once, before the first cycle; it returns the telemetry
// instance whose exporters produce the run's artifacts. The core-side
// gauges read Totals: probes fire at cycle boundaries, where the counters
// are settled.
func (s *Simulator) attachTelemetry(epochLen int64) *telemetry.Telemetry {
	if s.Tel != nil {
		panic("gpu: telemetry attached twice")
	}
	t := telemetry.New(epochLen)
	reg := t.Reg
	s.Net.AttachTelemetry(reg)
	for _, m := range s.MCs {
		m.AttachTelemetry(reg)
	}
	gauge := func(field string, fn func() int64) {
		reg.GaugeFunc("core."+field, telemetry.Desc{
			Family: "noc_core_" + field,
			Help:   "Aggregate processor-side counters.",
		}, fn)
	}
	gauge("instructions", func() int64 { return s.Totals().Instructions })
	gauge("mem_requests", func() int64 { return s.Totals().MemRequests })
	gauge("stall_cycles", func() int64 { return s.Totals().StallCycles })
	gauge("l1_misses", func() int64 { return s.Totals().L1Misses })
	gauge("l2_misses", func() int64 { return s.Totals().L2Misses })
	s.Tel = t
	return t
}

// attachSpans installs per-packet span tracing: a deterministic sampler
// (seeded by the run's RNG seed, so reruns trace the same packets) selects
// the given fraction of request packets at injection, and every probe site
// in the fabric, the MCs, and the DRAM channels records lifecycle events
// for them and their replies. Call once, before the first cycle. Rate 0
// installs the collector but samples nothing — useful for overhead
// equivalence checks.
func (s *Simulator) attachSpans(rate float64) (*obs.Spans, error) {
	if s.Spans != nil {
		panic("gpu: spans attached twice")
	}
	sp, err := obs.NewSpans(s.Cfg.Seed, rate)
	if err != nil {
		return nil, err
	}
	s.Net.SetSpans(sp)
	for _, m := range s.MCs {
		m.SetSpans(sp)
	}
	s.Spans = sp
	return sp, nil
}

// tick ticks the endpoint on node, the interconnect's endpoint stage; false
// (a dormant SM, an empty tile) leaves the walk. A tick touches only its own
// endpoint, the shared counters and — through Inject — its own node's queue.
func (s *Simulator) tick(node int) bool {
	e := s.endpoints[node]
	return e != nil && e.Tick(s.cycle)
}

// Step advances the whole system one NoC cycle. The endpoints tick inside
// Net.Step, first, so a decorator over s.Net sees the whole cycle.
func (s *Simulator) Step() {
	s.Net.Step()
	s.cycle++
	if s.Tel != nil {
		s.Tel.MaybeSample(s.cycle)
	}
}

// Result summarizes one run.
type Result struct {
	Benchmark  string
	IPC        float64
	Cycles     int64
	Deadlocked bool

	GPU stats.GPU
	Net *stats.Net

	// Tel carries the telemetry subsystem when the run was instrumented
	// (Instrumentation.TelemetryEpoch); nil otherwise. Its exporters write
	// the run's time-series, heatmap, and trace artifacts.
	Tel *telemetry.Telemetry

	// Spans carries the per-packet span collector when the run was traced
	// (Instrumentation.Spans); nil otherwise. Its exporters write the span
	// JSONL log and the Chrome trace-event file.
	Spans *obs.Spans

	// Flight carries the flight recorder when one was attached
	// (AttachFlight); nil otherwise.
	Flight *fleetobs.Recorder
}

// Metrics condenses the run into the flat, JSON-encodable summary the
// sweep engine records per job.
func (r Result) Metrics() stats.Metrics { return stats.Collect(r.GPU, r.Net) }

// RunContext simulates warmup then measurement and returns the results. The
// deadlock watchdog aborts wedged runs (Deadlocked set, stats best-effort),
// a sanitizer violation aborts with an error, and the loop checks ctx every
// 512 cycles: when cancelled it returns the partial result alongside ctx's
// error. This is what gives sweep jobs real timeouts — a cancelled job
// stops simulating instead of leaking a goroutine until it finishes on its
// own.
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	if s.Flight != nil {
		defer func() {
			if r := recover(); r != nil {
				s.Flight.Record(s.cycle, fleetobs.KindPanic, 0, 0, 0)
				s.dumpFlight("panic")
				panic(r)
			}
		}()
	}

	s.Net.EnableStats(false)
	s.Flight.Record(s.cycle, fleetobs.KindPhase, 0, 0, 0)
	if res, stop, err := s.runPhase(ctx, s.Cfg.WarmupCycles); stop {
		return res, err
	}

	before := s.Totals()
	s.Net.EnableStats(true)
	s.Flight.Record(s.cycle, fleetobs.KindPhase, 1, 0, 0)
	if res, stop, err := s.runPhase(ctx, s.Cfg.MeasureCycles); stop {
		return res, err
	}

	res := s.result(false, int64(s.Cfg.MeasureCycles))
	res.GPU = s.Totals()
	res.GPU.Sub(&before)
	res.GPU.Cycles = int64(s.Cfg.MeasureCycles)
	res.IPC = res.GPU.IPC()
	return res, nil
}

// runPhase simulates one phase (warmup or measurement) of the given length,
// one Step per cycle; every 512th cycle is the cancellation, flight
// checkpoint and deadlock-watchdog boundary. The bool reports an early exit
// — sanitizer failure, cancellation, or a watchdog trip — with the partial
// result and error RunContext must return.
func (s *Simulator) runPhase(ctx context.Context, cycles int) (Result, bool, error) {
	const watchdogWindow = 2048
	for i := 0; i < cycles; i++ {
		s.Step()
		if err := s.sanitize(); err != nil {
			return s.result(false, int64(i)), true, err
		}
		if i%512 == 511 {
			if err := ctx.Err(); err != nil {
				return s.result(false, int64(i)), true, err
			}
			s.Flight.Record(s.cycle, fleetobs.KindCheckpoint, int64(s.Net.FlitsInFlight()), 0, 0)
			if s.Net.Quiescent(watchdogWindow) {
				s.flightWatchdog()
				return s.result(true, int64(i)), true, nil
			}
		}
	}
	return Result{}, false, nil
}

// checkInvariants validates the interconnect, then every endpoint's sleep
// state (a sleeping SM or MC must still have its reason to sleep, and one out
// of the tick walk must be a dormant SM) and, across the two layers, every
// endpoint waiting for injection space: the queue that refused its packet
// must still lack the room, or the drain's wake was lost.
func (s *Simulator) checkInvariants() error {
	if err := s.Net.CheckInvariants(); err != nil {
		return err
	}
	for _, sm := range s.SMs {
		if err := sm.CheckInvariants(s.cycle); err != nil {
			return err
		}
		if err := s.checkRefused("SM", sm.Index, sm.Node, sm.Refused()); err != nil {
			return err
		}
		if !sm.Dormant() && !s.Net.Ticking(sm.Node) {
			return fmt.Errorf("gpu: SM %d is out of the tick walk but not dormant: its wake was lost", sm.Index)
		}
	}
	for _, m := range s.MCs {
		if err := m.CheckInvariants(s.cycle); err != nil {
			return err
		}
		if err := s.checkRefused("MC", m.Index, m.Node, m.Refused()); err != nil {
			return err
		}
		if !s.Net.Ticking(m.Node) {
			return fmt.Errorf("gpu: MC %d is out of the tick walk", m.Index)
		}
	}
	return nil
}

// checkRefused fails when the endpoint waits (p, its refused outbox front,
// is non-nil) for space its node's injection queue already has. On two
// subnets InjectSpace is the smaller of the two queues' space, so the check
// is sound there too, only weaker.
func (s *Simulator) checkRefused(kind string, idx int, node mesh.NodeID, p *packet.Packet) error {
	if p != nil && s.Net.InjectSpace(node) >= p.Flits {
		return fmt.Errorf("gpu: %s %d waits for injection space node %d already has: the drain wake was lost", kind, idx, node)
	}
	return nil
}

// sanitize runs the sampled invariant check when enabled; a violation is a
// simulator bug (or corrupted state), reported as an error rather than left
// to surface as a silent hang or skewed statistics.
func (s *Simulator) sanitize() error {
	if s.SanitizeEvery <= 0 || s.cycle%int64(s.SanitizeEvery) != 0 {
		return nil
	}
	if err := s.checkInvariants(); err != nil {
		s.Flight.Record(s.cycle, fleetobs.KindInvariantFail, 0, 0, 0)
		if path := s.dumpFlight("invariant"); path != "" {
			return fmt.Errorf("gpu: sanitizer at cycle %d (flight dump: %s): %w", s.cycle, path, err)
		}
		return fmt.Errorf("gpu: sanitizer at cycle %d: %w", s.cycle, err)
	}
	s.Flight.Record(s.cycle, fleetobs.KindInvariantOK, 0, 0, 0)
	return nil
}

// flightWatchdog records a deadlock-watchdog trip and writes the
// post-mortem dump; the cycles leading up to a wedge are exactly what the
// recorder exists to preserve.
func (s *Simulator) flightWatchdog() {
	s.Flight.Record(s.cycle, fleetobs.KindWatchdog, int64(s.Net.FlitsInFlight()), 0, 0)
	s.dumpFlight("watchdog")
}

// dumpFlight writes the flight recorder's JSONL snapshot under FlightDir,
// named <benchmark>-s<seed>-<reason>, returning the path ("" when no
// recorder or dump dir is configured, or on write failure — dumping is
// post-mortem best-effort and never masks the original failure).
func (s *Simulator) dumpFlight(reason string) string {
	if s.Flight == nil || s.FlightDir == "" {
		return ""
	}
	name := fmt.Sprintf("%s-s%d-%s", s.Prof.Name, s.Cfg.Seed, reason)
	path, err := s.Flight.Dump(s.FlightDir, name, reason)
	if err != nil {
		return ""
	}
	return path
}

func (s *Simulator) result(deadlocked bool, cycles int64) Result {
	st := s.Net.Stats()
	st.Cycles = cycles
	g := s.Totals()
	g.Cycles = cycles
	if s.Tel != nil {
		// Close the time-series with the run's final state so partial
		// epochs (cancellation, deadlock, odd run lengths) are captured.
		s.Tel.Flush(s.cycle)
	}
	return Result{
		Benchmark:  s.Prof.Name,
		IPC:        g.IPC(),
		Cycles:     cycles,
		Deadlocked: deadlocked,
		GPU:        g,
		Net:        st,
		Tel:        s.Tel,
		Spans:      s.Spans,
		Flight:     s.Flight,
	}
}

// Run is the one-call runner: get a simulator for cfg and the named
// benchmark with the requested instrumentation, simulate warmup then
// measurement under ctx's cancellation, and return the result. On cancellation the partial result is returned
// together with ctx's error.
//
// An uninstrumented run recycles: it takes an idle simulator of cfg's shape
// — its storage, whatever its placement, routing and VC policy — when there
// is one and Resets it, which rewires it to cfg's design point, and a
// simulator whose run completed — no error, no deadlock, no panic — goes
// back on the idle list.
// The list holds at most GOMAXPROCS simulators, the oldest dropped first,
// and a run that finds none of its shape drops the oldest too.
// An instrumented simulator is always built fresh and never kept: its
// telemetry and spans escape into the result.
func Run(ctx context.Context, cfg config.Config, benchmark string, inst Instrumentation) (Result, error) {
	prof, err := workload.Get(benchmark)
	if err != nil {
		return Result{}, err
	}
	if inst != (Instrumentation{}) {
		sim, err := NewInstrumented(cfg, prof, inst)
		if err != nil {
			return Result{}, err
		}
		return sim.RunContext(ctx)
	}
	sim := unpark(cfg)
	if sim == nil {
		sim, err = New(cfg, prof)
	} else {
		err = sim.Reset(cfg, prof)
	}
	if err != nil {
		return Result{}, err
	}
	res, err := sim.RunContext(ctx)
	if err == nil && !res.Deadlocked {
		park(sim)
	}
	return res, err
}

// idle holds the simulators Run may reuse, most recently parked last.
var idle struct {
	sync.Mutex
	sims []*Simulator
}

// unpark removes and returns the most recently parked simulator of cfg's
// shape. When there is none it returns nil and drops the oldest idle
// simulator: the caller builds one, and a simulator of a shape no run has
// asked for since would only raise the heap.
func unpark(cfg config.Config) *Simulator {
	want := shape(cfg)
	idle.Lock()
	defer idle.Unlock()
	for i := len(idle.sims) - 1; i >= 0; i-- {
		if s := idle.sims[i]; shape(s.Cfg) == want {
			idle.sims = slices.Delete(idle.sims, i, i+1)
			return s
		}
	}
	if len(idle.sims) > 0 {
		idle.sims = slices.Delete(idle.sims, 0, 1)
	}
	return nil
}

// park puts s on the idle list, dropping the oldest simulator when the list
// already holds GOMAXPROCS.
func park(s *Simulator) {
	idle.Lock()
	defer idle.Unlock()
	if drop := len(idle.sims) + 1 - runtime.GOMAXPROCS(0); drop > 0 {
		idle.sims = slices.Delete(idle.sims, 0, drop)
	}
	idle.sims = append(idle.sims, s)
}
