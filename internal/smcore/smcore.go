// Package smcore models a streaming multiprocessor (SM): 48 warp contexts
// scheduled greedy-then-oldest (GTO, Table 2), a 16KB write-back L1 data
// cache with an MSHR file, a coalescing memory stage, and the NoC interface
// that turns L1 misses and dirty write-backs into request packets.
//
// The pipeline is deliberately lean — one warp-instruction issued per cycle
// — because the paper's experiments measure how the interconnect throttles
// memory-bound execution, not intra-SM microarchitecture. What matters and
// is modelled faithfully: warps block on data they are waiting for, each
// warp sustains bounded memory-level parallelism, a full MSHR file or write
// buffer stalls issue, and IPC therefore degrades exactly when the network
// backs up.
package smcore

import (
	"fmt"
	"math"

	"gpgpunoc/internal/cache"
	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/workload"
)

// warp is one warp context.
type warp struct {
	readyAt     int64
	outstanding int    // loads in flight
	stalled     bool   // retrying a structurally-stalled instruction
	fetchWait   bool   // blocked on the instruction-cache fill of fetchLine
	fetchLine   uint64 // valid while fetchWait
	pending     workload.Instr

	// Instruction-fetch state. Control flow is modelled as a hot loop
	// (loopBase..loopBase+loop) executed for a phase, then a move to
	// the next region of the kernel — kernels are loops, not straight-line
	// walks, so steady-state I-cache miss rates stay realistically small
	// while kernels larger than the 2KB L1I still miss at phase changes.
	loopBase uint64
	pc       uint64 // offset within the hot loop
	instrs   uint64 // issued instructions, for phase changes
}

// loopPhaseInstrs is how many instructions a warp spends in one hot loop
// region before moving on.
const loopPhaseInstrs = 4096

// instBase places kernel images in a reserved high address region, disjoint
// from any data footprint, shared by all SMs (one kernel, many cores — so
// instruction lines are hot in the L2 slices).
const instBase = uint64(1) << 40

// instrBytes is the encoded size of one instruction.
const instrBytes = 8

// SM is one streaming multiprocessor.
type SM struct {
	Index int
	Node  mesh.NodeID

	core  config.Core
	mem   config.Mem
	net   noc.Interconnect
	place *placement.Placement
	prof  workload.Profile

	l1    *cache.Cache
	mshr  *cache.MSHR
	warps []warp
	gens  []workload.Generator // warp w's instruction stream

	// Instruction fetch: icache is the 2KB L1I (l1i), nil when the profile
	// has no kernel image. A fill is in flight for each line a warp waits on
	// (fetchLine).
	icache, l1i *cache.Cache
	// loop is the hot-loop size: the whole kernel if it is under half the
	// L1I, else half the L1I (each phase change then pays cold misses).
	loop uint64

	outbox    packet.FIFO
	free      packet.FreeList // the replies this SM ejected: storage for its requests
	outboxCap int
	greedy    int // GTO: last warp issued from

	gpu    *stats.GPU
	nextID *uint64 // this SM's packet id counter (see gpu.New for the id scheme)

	// idleUntil is the sleep horizon. A tick that ends in a pure stall — no
	// eligible warp, or the chosen warp's instruction structurally blocked —
	// would repeat itself verbatim until a fill arrives, the outbox drains a
	// packet, or a warp's readyAt comes due; it records the earliest such
	// due cycle here, and until then Tick only runs the outbox drain (nothing,
	// while injBlocked) and counts the stall. Sink and the drain wake the SM
	// by zeroing it. Both writers run inside the interconnect's Step.
	idleUntil  int64
	sleptTicks int64 // ticks that took the early-out
	lastTick   int64 // the last cycle Tick ran or Settle charged

	// injBlocked: the interconnect refused the outbox front. The front does
	// not change while it waits and queue space grows only when the network
	// drains the node's injection queue, so Tick stops retrying until the
	// interconnect's inject wake (WakeInject) says space was freed.
	injBlocked bool
}

// New builds an SM running prof at the given mesh node: Build of one SM.
func New(idx int, node mesh.NodeID, core config.Core, memCfg config.Mem,
	prof workload.Profile, seed uint64, net noc.Interconnect,
	pl *placement.Placement, gpu *stats.GPU, nextID *uint64) *SM {
	return Build([]Slot{{Index: idx, Node: node, Seed: seed, NextID: nextID}}, core, memCfg, prof, net, pl, gpu)[0]
}

// Slot is what one SM of a Build has of its own: its index, mesh node,
// workload seed and packet-ID counter.
type Slot struct {
	Index  int
	Node   mesh.NodeID
	Seed   uint64
	NextID *uint64
}

// Build builds one SM per slot, all running prof, and returns them in slot
// order. The SMs share a handful of allocations — SMs, warps, generators
// and their streams, L1D and L1I lines, MSHR tables — however many there
// are, then Reset(prof, seed) sets every piece of each one's run state.
func Build(slots []Slot, core config.Core, memCfg config.Mem, prof workload.Profile,
	net noc.Interconnect, pl *placement.Placement, gpu *stats.GPU) []*SM {

	n, nw := len(slots), core.WarpsPerSM
	sms, out := make([]SM, n), make([]*SM, n)
	warps := make([]warp, n*nw)
	l1s := cache.NewSlab(n, memCfg.L1DataBytes, memCfg.L1Ways, memCfg.LineBytes)
	l1is := cache.NewSlab(n, memCfg.L1InstBytes, memCfg.L1InstWays, memCfg.LineBytes)
	mshrs := cache.NewMSHRSlab(n, memCfg.L1MSHRs)
	shares := make([]workload.SMWarps, n)
	for i, sl := range slots {
		sms[i] = SM{
			Index:     sl.Index,
			Node:      sl.Node,
			core:      core,
			mem:       memCfg,
			net:       net,
			place:     pl,
			prof:      prof,
			l1:        &l1s[i],
			l1i:       &l1is[i],
			mshr:      &mshrs[i],
			warps:     warps[i*nw : (i+1)*nw : (i+1)*nw],
			outboxCap: 16,
			gpu:       gpu,
			nextID:    sl.NextID,
		}
		shares[i] = workload.SMWarps{Prof: &sms[i].prof, Seed: sl.Seed, SM: sl.Index}
		out[i] = &sms[i]
	}
	gens := workload.NewGenerators(shares, nw)
	for i, sl := range slots {
		sms[i].gens = gens[i*nw : (i+1)*nw : (i+1)*nw]
		sms[i].Reset(prof, sl.Seed)
	}
	return out
}

// Reset rewinds the SM to what New builds for prof and seed — empty caches,
// MSHR file and outbox, every warp at the head of its instruction stream, no
// sleep — keeping its storage: the packets its outbox held go to its free
// list. A profile with a kernel image gets an I-cache, one without loses it.
// The caller zeroes the counters and the packet-ID counter New was given.
func (s *SM) Reset(prof workload.Profile, seed uint64) {
	s.prof = prof
	s.loop = min(prof.KernelBytes, uint64(s.mem.L1InstBytes/2))
	s.l1.Reset()
	s.l1i.Reset()
	s.mshr.Reset()
	switch {
	case prof.KernelBytes == 0:
		s.icache = nil
	case s.loop == 0: // Tick's pc wrap could never advance
		panic(fmt.Sprintf("smcore: a %dB L1I leaves %s's kernel no hot loop to fetch", s.mem.L1InstBytes, prof.Name))
	default:
		s.icache = s.l1i
	}
	for s.outbox.Len() > 0 {
		s.free.Put(s.outbox.Front())
		s.outbox.Pop()
	}
	workload.ResetGenerators(s.gens, seed, s.Index)
	clear(s.warps)
	if prof.KernelBytes > 0 {
		// Stagger loop phases slightly so warps do not fetch in lockstep;
		// warps of one SM still share the same hot region, as CTAs of one
		// kernel do.
		for w := range s.warps {
			s.warps[w].instrs = uint64(w) * 7
		}
	}
	s.greedy, s.idleUntil, s.sleptTicks, s.lastTick, s.injBlocked = 0, 0, 0, -1, false
}

// Rebind moves the SM to node of placement pl, whose MCs its requests go
// to from now on. Call between runs.
func (s *SM) Rebind(node mesh.NodeID, pl *placement.Placement) { s.Node, s.place = node, pl }

// Reclaim gives the SM the storage of a packet of one of its unfinished
// transactions, which a Reset took out of the network or an MC.
func (s *SM) Reclaim(p *packet.Packet) { s.free.Put(p) }

// L1 exposes the data cache for tests and reports.
func (s *SM) L1() *cache.Cache { return s.l1 }

// MSHR exposes the miss file for tests.
func (s *SM) MSHR() *cache.MSHR { return s.mshr }

func (s *SM) lineAddr(addr uint64) uint64 {
	return addr &^ (uint64(s.mem.LineBytes) - 1)
}

func (s *SM) newPacket(t packet.Type, addr uint64, warpID int, now int64) *packet.Packet {
	*s.nextID++
	home := s.place.HomeMC(addr, s.mem.LineBytes)
	return s.free.Get(packet.Packet{
		ID:    *s.nextID,
		Type:  t,
		Src:   int(s.Node),
		Dst:   int(s.place.MCNode(home)),
		Flits: packet.Length(t),
		Access: packet.MemAccess{
			Addr: s.lineAddr(addr),
			SM:   s.Index,
			Warp: warpID,
		},
		CreatedAt: now,
	})
}

// Sink returns the NoC ejection callback: data read replies fill the MSHR
// and wake waiting warps, instruction replies fill the L1I and release
// fetch-blocked warps, write replies are acknowledgements. Every reply's
// storage goes to this SM's requests; only Tick draws them (see noc.Sink).
func (s *SM) Sink() noc.Sink {
	return func(f packet.Flit) bool {
		if !f.Tail {
			return true
		}
		s.free.Put(f.Pkt) // still readable: nothing draws it before Tick
		if f.Pkt.Type != packet.ReadReply {
			return true
		}
		s.idleUntil = 0 // a fill can make a warp eligible or free an MSHR entry
		line := s.lineAddr(f.Pkt.Access.Addr)
		if f.Pkt.Access.IsInst {
			s.icache.Access(line, false) // install; clean, never written back
			for i := range s.warps {
				w := &s.warps[i]
				w.fetchWait = w.fetchWait && w.fetchLine != line
			}
			return true
		}
		for _, w := range s.mshr.Fill(line) {
			s.warps[w].outstanding--
		}
		return true
	}
}

// fetch models the instruction-fetch stage for warp wi: true means the
// instruction is available this cycle. A miss sends a fetch to the line's
// home MC (instruction lines live in a reserved region shared by all SMs)
// and blocks the warp until the fill returns.
func (s *SM) fetch(w *warp, wi int, now int64) bool {
	if s.icache == nil {
		return true
	}
	line := s.lineAddr(instBase + w.loopBase + w.pc)
	if s.icache.Touch(line) {
		return true
	}
	if !s.fetching(line) {
		if s.outbox.Len() >= s.outboxCap {
			return false // fetch retries next cycle; warp stays eligible
		}
		p := s.newPacket(packet.ReadRequest, line, wi, now)
		p.Access.IsInst = true
		s.outbox.Push(p)
	}
	w.fetchLine, w.fetchWait = line, true
	return false
}

// fetching reports whether a fill for instruction line is in flight.
func (s *SM) fetching(line uint64) bool {
	for i := range s.warps {
		if w := &s.warps[i]; w.fetchWait && w.fetchLine == line {
			return true
		}
	}
	return false
}

// eligible reports whether warp w can issue at cycle now.
func (s *SM) eligible(w *warp, now int64) bool {
	if w.readyAt > now || w.fetchWait {
		return false
	}
	if w.outstanding >= s.prof.RunAhead {
		return false // waiting on loads
	}
	return true
}

// timeHorizon returns the earliest readyAt after now among the warps that
// only need time to pass (not a fill or a fetch return), math.MaxInt64 if
// there is none: the sleep horizon.
func (s *SM) timeHorizon(now int64) int64 {
	h := int64(math.MaxInt64)
	for i := range s.warps {
		w := &s.warps[i]
		if w.fetchWait || w.outstanding >= s.prof.RunAhead {
			continue // unblocked by a reply, not by time
		}
		if w.readyAt > now && w.readyAt < h {
			h = w.readyAt
		}
	}
	return h
}

// stall counts one issue-less cycle.
func (s *SM) stall() {
	if s.gpu != nil {
		s.gpu.StallCycles++
	}
}

// sleep ends a tick that changed nothing the next tick would read: no warp
// was eligible, or the chosen warp's instruction is structurally blocked
// (it is now marked stalled, stays the GTO choice, and would replay against
// the same L1, MSHR file and outbox). Eligible warps stay eligible and
// blocked ones stay blocked until a fill or an outbox pop — both wake the
// SM — or until a readyAt comes due, which is the horizon recorded here.
// It returns what Tick does.
func (s *SM) sleep(now int64) bool {
	s.idleUntil = s.timeHorizon(now)
	s.stall()
	return !s.Dormant()
}

// Dormant reports whether only an event can end the SM's sleep — a ReadReply
// tail at Sink, or WakeInject: no warp waits on time alone, and the outbox
// is empty or its front refused. Until then every Tick takes the early-out.
func (s *SM) Dormant() bool {
	return s.idleUntil == math.MaxInt64 && (s.injBlocked || s.outbox.Len() == 0)
}

// Settle charges the early-outs of the ticks skipped since the last Tick, up
// to the cycle boundary before now, in one add; readers of the counters call it.
func (s *SM) Settle(now int64) {
	if gap := now - s.lastTick - 1; gap > 0 {
		s.sleptTicks += gap
		if s.gpu != nil {
			s.gpu.StallCycles += gap
		}
		s.lastTick = now - 1
	}
}

// pick is GTO scheduling: keep issuing from the greedy warp; on stall,
// switch to the oldest (lowest-index) eligible warp. -1 means none.
func (s *SM) pick(now int64) int {
	if s.eligible(&s.warps[s.greedy], now) {
		return s.greedy
	}
	for i := range s.warps {
		if s.eligible(&s.warps[i], now) {
			return i
		}
	}
	return -1
}

// WakeInject is the SM's inject wake (noc.Interconnect.SetInjectWake): the
// network freed space in this node's injection queue after refusing the
// outbox front, so the next Tick retries it. It runs inside the
// interconnect's Step. Calling it spuriously is harmless — a driver that knows
// nothing of wakes calls it before every Tick and gets the polling SM.
func (s *SM) WakeInject() { s.injBlocked = false }

// Refused returns the outbox front the interconnect refused and has not yet
// made room for, nil if the SM is not waiting on injection space. The gpu
// sanitizer checks it against the queue's actual space.
func (s *SM) Refused() *packet.Packet {
	if !s.injBlocked {
		return nil
	}
	return s.outbox.Front()
}

// SleptTicks returns how many ticks took the sleeping early-out, as of the
// last Settle or Tick.
func (s *SM) SleptTicks() int64 { return s.sleptTicks }

// Tick advances the SM one cycle, issuing at most one warp-instruction. False
// means Dormant: the caller may skip ticks until Sink or WakeInject runs.
func (s *SM) Tick(now int64) bool {
	s.Settle(now)
	s.lastTick = now
	// Drain the write/request outbox into the network first; a full outbox
	// stalls the memory stage below. A refusal blocks the drain until the
	// inject wake, so what is left of a sleeping SM's tick is two compares.
	for !s.injBlocked && s.outbox.Len() > 0 {
		if !s.net.Inject(s.outbox.Front()) {
			s.injBlocked = true
			break
		}
		s.outbox.Pop()
		s.idleUntil = 0 // outbox space may unblock a stalled miss or store
	}
	if now < s.idleUntil {
		s.sleptTicks++
		s.stall()
		return !s.Dormant()
	}

	wi := s.pick(now)
	if wi < 0 {
		return s.sleep(now)
	}
	w := &s.warps[wi]

	// Fetch stage: the instruction must be in the L1I before issue. A
	// replayed (stalled) instruction was already fetched. A fetch miss
	// changes state (fetchWait, a request in the outbox), so the next tick
	// may choose another warp: no sleep.
	if !w.stalled && !s.fetch(w, wi, now) {
		s.stall()
		return true
	}

	instr := w.pending
	if !w.stalled {
		instr = s.gens[wi].Next()
	}
	if !s.execute(w, wi, instr, now) {
		// Structural stall: remember the instruction and retry. The warp
		// stays eligible so GTO keeps it greedy, matching how a scoreboard
		// replays a stalled memory op.
		w.pending = instr
		w.stalled = true
		return s.sleep(now)
	}
	w.stalled = false
	s.greedy = wi
	if s.prof.KernelBytes > 0 {
		w.instrs++
		w.pc += instrBytes
		for w.pc >= s.loop { // (pc + instrBytes) % loop: pc < loop before the add
			w.pc -= s.loop
		}
		if w.instrs%loopPhaseInstrs == 0 {
			w.loopBase = (w.loopBase + s.loop) % s.prof.KernelBytes
			w.pc = 0
		}
	}
	if s.gpu != nil {
		s.gpu.Instructions++
	}
	return true
}

// missBlocked reports whether a load that missed the L1 on line cannot
// proceed: its MSHR entry has no merge slot left, or it has no entry and
// the file or the outbox (the request needs a slot) is full. Side-effect
// free — execute decides the stall with it before allocating anything, and
// CheckInvariants re-derives a sleeper's cause from it.
func (s *SM) missBlocked(line uint64) bool {
	if waiters, ok := s.mshr.Lookup(line); ok {
		return waiters >= s.mshr.MaxMerged
	}
	return s.mshr.Full() || s.outbox.Len() >= s.outboxCap
}

// execute attempts one instruction; false means a structural stall (MSHR or
// write buffer full) and the instruction must be retried.
func (s *SM) execute(w *warp, wi int, in workload.Instr, now int64) bool {
	switch in.Kind {
	case workload.Compute, workload.Shared:
		// Shared-memory ops complete inside the SM; bank conflicts are
		// already folded into the generated latency.
		lat := int64(in.Latency)
		if lat < 1 {
			lat = 1
		}
		w.readyAt = now + lat
		return true

	case workload.Load:
		if s.l1.Touch(in.Addr) {
			if s.gpu != nil {
				s.gpu.L1Hits++
			}
			w.readyAt = now + 1
			return true
		}
		line := s.lineAddr(in.Addr)
		if s.missBlocked(line) {
			return false
		}
		if s.gpu != nil {
			s.gpu.L1Misses++
			s.gpu.MemRequests++ // a merged miss adds no NoC traffic
		}
		switch s.mshr.Allocate(line, wi) {
		case cache.Merged:
		case cache.Primary:
			res := s.l1.Access(in.Addr, false) // install line (fill in flight)
			if res.Eviction {
				s.outbox.Push(s.newPacket(packet.WriteRequest, res.VictimAddr, wi, now))
			}
			s.outbox.Push(s.newPacket(packet.ReadRequest, in.Addr, wi, now))
		default:
			panic("smcore: MSHR refused an allocation missBlocked admitted")
		}
		w.outstanding++
		w.readyAt = now + 1
		return true

	case workload.Store:
		if s.outbox.Len() >= s.outboxCap {
			return false // write buffer full
		}
		res := s.l1.Access(in.Addr, true) // write-allocate, no fetch
		if s.gpu != nil {
			if res.Hit {
				s.gpu.L1Hits++
			} else {
				s.gpu.L1Misses++
			}
		}
		if res.Eviction {
			if s.gpu != nil {
				s.gpu.MemRequests++
			}
			s.outbox.Push(s.newPacket(packet.WriteRequest, res.VictimAddr, wi, now))
		}
		w.readyAt = now + 1
		return true
	}
	panic("smcore: unknown instruction kind")
}

// CheckInvariants validates the sleep state at the cycle boundary before
// Tick(now), side-effect free: if that tick would take the early-out, the
// reason is re-derived from scratch — no readyAt comes due before the
// horizon, and the GTO choice is either no warp or a stalled warp whose
// pending instruction is still blocked by the MSHR file or the outbox. The
// gpu sanitizer samples it next to the interconnect's own check.
func (s *SM) CheckInvariants(now int64) error {
	if now >= s.idleUntil {
		return nil
	}
	fail := func(format string, a ...any) error {
		return fmt.Errorf("smcore: SM %d asleep until cycle %d at cycle %d, but "+format,
			append([]any{s.Index, s.idleUntil, now}, a...)...)
	}
	if h := s.timeHorizon(now); h < s.idleUntil {
		return fail("a warp's readyAt comes due at cycle %d", h)
	}
	wi := s.pick(now)
	if wi < 0 {
		return nil
	}
	w := &s.warps[wi]
	if !w.stalled {
		return fail("warp %d is eligible and not stalled", wi)
	}
	switch in := w.pending; in.Kind {
	case workload.Store:
		if s.outbox.Len() < s.outboxCap {
			return fail("warp %d's stalled store would issue: the outbox has space (%d of %d)",
				wi, s.outbox.Len(), s.outboxCap)
		}
	case workload.Load:
		if s.l1.Probe(in.Addr) {
			return fail("warp %d's stalled load would hit the L1", wi)
		}
		if !s.missBlocked(s.lineAddr(in.Addr)) {
			return fail("warp %d's stalled load would issue: MSHR occupancy %d, outbox %d of %d",
				wi, s.mshr.Occupancy(), s.outbox.Len(), s.outboxCap)
		}
	default:
		return fail("warp %d is stalled on an instruction that cannot stall", wi)
	}
	return nil
}

// Outstanding returns total in-flight loads across warps (test hook).
func (s *SM) Outstanding() int {
	total := 0
	for i := range s.warps {
		total += s.warps[i].outstanding
	}
	return total
}
