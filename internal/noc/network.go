// Package noc implements the cycle-level 2D-mesh network-on-chip: wormhole
// switching, virtual channels with credit-based flow control, the two-stage
// router pipeline of Section 2.2, and pluggable routing algorithms and VC
// partitioning policies.
//
// The network moves packet.Flit values between endpoint queues. Endpoints
// (SM cores, memory controllers, or synthetic harnesses) inject whole
// packets and receive flits through per-node sink callbacks; all
// backpressure — finite VC buffers, finite injection queues, sinks that
// refuse flits — is modelled, which is what makes protocol deadlock a real,
// demonstrable phenomenon rather than an abstraction.
//
// Step does not scan the mesh: each phase of a cycle walks the set bits of
// one run mask (schedule.go) — the routers holding buffered flits, the
// routers with an occupied link register, the injection queues worth a
// visit. The masks are exact, set and cleared where the count they summarize
// leaves or reaches zero and recounted by CheckInvariants, so a drained
// network steps for free and a saturated one pays a word load per 64 nodes.
// Every phase visits in ascending ID order, which pins the order of sink
// calls and of the floating-point statistics accumulation. The oracle is a
// specification model in this package's external tests (spec_test.go),
// written from DESIGN.md's router description and sharing no code with the
// kernel: it visits every node and router every cycle, with no masks and no
// in-place moves, and the kernel must match it bit for bit.
//
// Each flit is handled where it lands: a head is routed when it becomes the
// front of its VC, and a traversal (or a credit) into a router the walk has
// already passed this cycle lands there at once; any other waits in a link
// register (a credit list) for the link phase. Either way the receiver first
// sees it next cycle: the one-cycle link and credit loop.
//
// The whole fabric is one device stepped by the calling goroutine: Step
// starts no goroutine and takes no lock.
package noc

import (
	"fmt"
	"math/bits"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/vc"
)

// Sink receives one flit ejected at a node. Returning false refuses the flit
// this cycle (it stays in the router and retries); the refusal propagates
// backpressure into the network.
//
// A packet's storage belongs to the endpoint whose sink accepts its tail,
// which may reuse it (packet.FreeList). The kernel reads the tail's packet
// after the sink returns until the cycle ends (traverse's ejection count,
// span event and telemetry), so no new packet may be drawn from it before
// then: an SM draws only in Tick, and an MC, which ejects one tail a cycle at
// most, draws a reply before it releases the request. Nothing
// may hold a *packet.Packet past the cycle its tail was ejected.
type Sink func(f packet.Flit) bool

// Interconnect is the interface endpoints drive. Network implements it for a
// single physical network; Dual implements it for the two-physical-subnets
// comparison of Section 4.2.
type Interconnect interface {
	// Inject queues a whole packet for injection at its source node. It
	// returns false when the node's injection queue lacks space; the caller
	// retries later (and experiences backpressure).
	Inject(p *packet.Packet) bool
	// InjectSpace returns the free flit slots in the node's injection queue.
	InjectSpace(node mesh.NodeID) int
	// SetSink installs the ejection callback for a node.
	SetSink(node mesh.NodeID, s Sink)
	// SetInjectWake installs the node's inject-wake callback, the same idiom
	// as SetSink in the other direction. After refusing an Inject at a node
	// the interconnect calls that node's wake, inside Step, once it has
	// freed any space in the queue that refused; it may call it spuriously
	// (the freed space need not fit the refused packet, and a refusal the
	// caller has since retried still counts). So a caller
	// that registers a wake may stop retrying a refused Inject until the
	// wake runs; a caller that registers nothing may keep polling.
	SetInjectWake(node mesh.NodeID, wake func())
	// SetStage installs the endpoint stage, the same idiom as SetSink: every
	// Step first calls fn(node) for the nodes whose endpoint needs the tick,
	// ascending. False drops the node until a sink accepts a tail flit there
	// or its inject wake runs (Reset puts every node back). A call may touch
	// only the node's endpoint, and of the interconnect only Inject and
	// InjectSpace for that node. nil removes the stage.
	SetStage(fn func(node int) bool)
	// Ticking reports, at a cycle boundary, whether node's stage call is due.
	Ticking(node mesh.NodeID) bool
	// Step advances the network one cycle.
	Step()
	// Cycle returns the number of completed cycles.
	Cycle() int64
	// Stats returns the collector (merged across subnets for Dual).
	Stats() *stats.Net
	// EnableStats opens or closes the measurement window (off during warmup).
	EnableStats(on bool)
	// FlitsInFlight returns flits buffered anywhere in the fabric,
	// including injection queues. Exact at every cycle boundary, a direct
	// Inject since the last Step included.
	FlitsInFlight() int
	// Quiescent reports no movement for the trailing window cycles while
	// flits remain in flight — the deadlock watchdog.
	Quiescent(window int64) bool
	// CheckInvariants validates internal consistency (credit accounting and
	// flit conservation); the gpu sanitizer samples it during runs.
	CheckInvariants() error
	// AttachTelemetry registers the fabric's cycle-domain probes (per-link
	// flit counters by class, VC occupancy gauges, stall attribution) on
	// reg. A nil registry leaves the fabric un-instrumented; it counts its
	// flits either way.
	AttachTelemetry(reg *telemetry.Registry)
	// SetSpans installs the per-packet span collector (nil disables span
	// tracing; disabled tracing costs one predictable nil check per probe
	// site).
	SetSpans(sp *obs.Spans)
	// Reset returns the interconnect to the state a run starts from (see
	// Network.Reset), keeping its storage and what is installed on it, and
	// hands every packet in flight to release (nil drops them).
	Reset(release func(*packet.Packet))
	// Rewire installs another design point's routing and VC assignment
	// (see Network.Rewire). Call after Reset, before the first Step.
	Rewire(alg routing.Algorithm, asg vc.Assigner)
}

// injQueue is a node's bounded injection FIFO, in flits. The packets sit in
// a packet.FIFO, so the backing array is reused in steady state and a
// consumed packet is not pinned for the arena's lifetime.
type injQueue struct {
	packet.FIFO     // packets not yet fully injected
	sent        int // flits of the front packet already pushed into the router
	flits       int // total flits queued (for capacity accounting)
	vc          int // local input VC receiving the current packet

	// refused: Inject turned a packet away since the queue last drained a
	// flit; the drain that clears it owes the node its inject wake.
	refused bool
}

func (q *injQueue) empty() bool { return q.Len() == 0 }

// injQueueFlits is every node's injection-queue capacity in flits. Inject
// admits whole packets, so it must hold at least one packet.LongFlits packet,
// or the node would refuse every long packet forever.
const injQueueFlits = 16

const _ uint = injQueueFlits - packet.LongFlits // compile-time: a long packet fits

// Network is a single physical mesh NoC.
type Network struct {
	m        mesh.Mesh
	alg      routing.Algorithm
	pol      vc.Assigner
	vcs      int
	depth    int
	numNodes int

	// pipeDelay is the minimum number of cycles between a flit's arrival in
	// an input buffer and its switch traversal; 2 models the paper's
	// two-stage router (RC/VA/SA in one cycle, ST in the next).
	pipeDelay int64
	// injRate is the node-to-router ingress bandwidth in flits/cycle.
	injRate int
	// linkPeriod is the cycles one flit occupies a link: 1 models the
	// full-width channel; 2 models the half-width channels of an
	// equal-resource physical subnet (Section 4.2).
	linkPeriod int64

	routers []router
	inj     []injQueue
	sinks   []Sink
	injWake []func() // per node; nil for a node whose endpoint polls

	// stage is the endpoint stage SetStage installed; the run masks are
	// the schedule each phase walks (schedule.go).
	stage                                func(node int) bool
	buffered, links, queues, idle, ticks nodeMask

	// credits lists the output ports owed credits this cycle
	// (outPort.pending) by routers that lie ahead of the walk; applyCredits
	// lands them after the router phase.
	credits []*outPort

	// routeTab caches the routing algorithm per (class, current, dest):
	// NextHop is a pure function of those three, so RC becomes one array
	// load instead of an interface call. Shared read-only with every
	// Network of this mesh size and routing (routetab.go); nil when the
	// mesh exceeds routeTabMaxNodes.
	routeTab routeTable
	// injRng caches the injection VC range per (node, class).
	injRng [][packet.NumClasses]vc.Range
	portOf [64]uint8 // input VC p·V+v's port p, for SA's port mask

	// spine is the kernel's one, always-on count of each per-flit event.
	// Probes read it through. linkBase (spine.Link as the open measurement
	// window began) and linkAcc (the closed windows' sum) make Stats'
	// window. counts backs all three, so Reset zeroes them with one clear.
	spine             telemetry.Spine
	linkBase, linkAcc [packet.NumClasses][]int64
	counts            []int64

	// stalls tallies stall attributions by obs.StallCause since Reset; the
	// net.stall.* probes read it through.
	stalls [obs.NumStallCauses]int64

	stats    *stats.Net
	tel      *telemetry.NetProbes
	spans    *obs.Spans
	cycle    int64
	moved    bool // any flit moved this cycle
	lastMove int64
	inFlight int // flits inside routers + injection queues

	// Visit counters, read by tests through export_test.go so the gates and
	// the in-place paths cannot rot silently: idle routers walked past,
	// injectNode visits, Injects refused, stage calls, full router visits,
	// traversals moved in place and via a link register, credits landed in
	// place and deferred to the list.
	idleSkips, injectVisits, refusedInjects, stageCalls        int64
	routerVisits                                               int64
	movesInPlace, movesViaReg, creditsInPlace, creditsDeferred int64
}

// Option tweaks network construction.
type Option func(*Network)

// WithPipelineDelay overrides the minimum buffer-to-switch residency in
// cycles (default 2, the two-stage router of Section 2.2; 1 gives an
// aggressive single-cycle router for ablations).
func WithPipelineDelay(d int) Option {
	return func(n *Network) { n.pipeDelay = int64(d) }
}

// WithLinkPeriod sets the cycles one flit occupies a link (default 1). Use
// 2 to model half-width channels, e.g. an equal-wire-budget physical
// subnetwork.
func WithLinkPeriod(p int) Option {
	return func(n *Network) {
		if p < 1 {
			p = 1
		}
		n.linkPeriod = int64(p)
	}
}

// New builds the network described by cfg with the given routing algorithm
// and VC assigner (a vc.Policy or a link-aware partial-monopolizing
// assigner). The caller is responsible for having validated the assigner
// against the placement via the core package when safety matters;
// deliberately unsafe configurations are allowed (and will deadlock).
func New(cfg config.NoC, alg routing.Algorithm, pol vc.Assigner, opts ...Option) *Network {
	if cfg.VCsPerPort > maxVCs {
		// config.Validate rejects this; a direct caller of New may skip it.
		panic(fmt.Sprintf("noc: 5·V input VCs exceed the 64-bit request masks (VCsPerPort %d > %d)", cfg.VCsPerPort, maxVCs))
	}
	m := mesh.New(cfg.Width, cfg.Height)
	nn := m.NumNodes()
	n := &Network{
		m:          m,
		alg:        alg,
		pol:        pol,
		vcs:        cfg.VCsPerPort,
		depth:      cfg.VCDepth,
		numNodes:   nn,
		pipeDelay:  2,
		injRate:    max(1, cfg.InjectionFlitsPerCycle),
		linkPeriod: 1,
		routers:    make([]router, nn),
		inj:        make([]injQueue, nn),
		sinks:      make([]Sink, nn),
		injWake:    make([]func(), nn),
		injRng:     make([][packet.NumClasses]vc.Range, nn),
	}
	words := (nn + 63) / 64
	masks := make(nodeMask, 5*words)
	n.buffered, n.links, n.queues = masks[:words], masks[words:2*words], masks[2*words:3*words]
	n.idle, n.ticks = masks[3*words:4*words], masks[4*words:5*words]
	n.credits = make([]*outPort, 0, mesh.NumLinkDirs*nn)
	for i := range n.portOf {
		n.portOf[i] = uint8(i / n.vcs)
	}
	ls := m.NumLinkSlots()
	n.counts = make([]int64, 3*packet.NumClasses*ls+2*nn)
	rest := n.counts
	take := func(k int) []int64 { s := rest[:k:k]; rest = rest[k:]; return s }
	for c := range n.linkBase {
		n.spine.Link[c], n.linkBase[c], n.linkAcc[c] = take(ls), take(ls), take(ls)
	}
	n.spine.Inj, n.spine.Ej = take(nn), take(nn)
	arena := newRouterArena(nn, n.vcs, n.depth)
	for id := range n.routers {
		n.routers[id].init(mesh.NodeID(id), m, n.vcs, n.depth, arena)
	}
	// Second pass: wire each input port to the upstream output port feeding
	// it, so credit returns are a pointer bump. The routers slice never
	// reallocates, so the pointers stay valid (telemetry GaugeFuncs rely on
	// the same stability).
	for id := range n.routers {
		rt := &n.routers[id]
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if op.exists {
				n.routers[op.downNode].upstream[op.downPort] = op
			}
		}
	}
	n.Rewire(alg, pol)
	for _, o := range opts {
		o(n)
	}
	n.Reset(nil)
	return n
}

// Rewire installs a design point's wiring: alg's next-hop table, and pol's
// VC ranges on every link output (elig) and injection port (injRng). New
// wires through it too, so a network built for one design point serves any
// other of its mesh, VC count and depth. Call on an empty network: between
// a Reset and the first Step of a run.
func (n *Network) Rewire(alg routing.Algorithm, pol vc.Assigner) {
	if n.inFlight != 0 {
		panic("noc: Rewire with flits in flight")
	}
	n.alg, n.pol = alg, pol
	n.routeTab = nextHopTable(n.m, alg)
	for id := range n.routers {
		rt := &n.routers[id]
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			for cls := range op.elig {
				r := pol.RangeFor(mesh.Link{From: rt.id, Dir: d}, op.orient, packet.Class(cls))
				op.elig[cls] = 1<<r.Hi - 1<<r.Lo
			}
		}
		for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
			n.injRng[id][cls] = pol.RangeFor(mesh.Link{From: mesh.NodeID(id), Dir: mesh.Local}, mesh.LocalPort, cls)
		}
	}
}

// releaseInFlight hands every packet in flight to release: those whose tail
// flit is still queued for injection, and those whose tail sits in an input
// buffer or a link register — one tail each, so one call each.
func (n *Network) releaseInFlight(release func(*packet.Packet)) {
	for i := range n.inj {
		q := &n.inj[i]
		for j := 0; j < q.Len(); j++ {
			release(q.At(j))
		}
	}
	for i := range n.routers {
		rt := &n.routers[i]
		for v := range rt.vcs {
			b := &rt.vcs[v].buf
			for j := 0; j < b.n; j++ {
				if f := b.at(j); f.Tail {
					release(f.Pkt)
				}
			}
		}
		for d := range rt.out {
			if op := &rt.out[d]; rt.regBusy>>d&1 != 0 && op.reg.Tail {
				release(op.reg.Pkt)
			}
		}
	}
}

// Reset returns the network to the state a run starts from — every buffer,
// link register and injection queue empty, every output VC free with full
// credits, arbitration pointers and counters zero, cycle 0 — keeping its
// storage and everything installed on it (sinks, wakes, stage, probes). New
// ends with it, so it is the one place a run's network state is set. Every packet in flight goes to release, once,
// when it is non-nil. The one thing Reset allocates is a new statistics
// collector, off: the old one is what Stats handed out, and belongs to
// whoever holds it. Call at a cycle boundary.
func (n *Network) Reset(release func(*packet.Packet)) {
	if release != nil {
		n.releaseInFlight(release)
	}
	for i := range n.routers {
		n.routers[i].reset(n.depth)
	}
	for i := range n.inj {
		q := &n.inj[i]
		for !q.empty() {
			q.Pop()
		}
		q.sent, q.flits, q.vc, q.refused = 0, 0, -1, false
	}
	clear(n.buffered)
	clear(n.links)
	clear(n.queues)
	clear(n.idle)
	for id := 0; id < n.numNodes; id++ {
		n.ticks.set(id)
	}
	n.credits = n.credits[:0]
	n.stalls = [obs.NumStallCauses]int64{}
	clear(n.counts)
	n.stats = stats.NewNet(n.m)
	n.cycle, n.moved, n.lastMove, n.inFlight = 0, false, 0, 0
	n.idleSkips, n.injectVisits, n.refusedInjects, n.stageCalls = 0, 0, 0, 0
	n.routerVisits = 0
	n.movesInPlace, n.movesViaReg, n.creditsInPlace, n.creditsDeferred = 0, 0, 0, 0
}

// Mesh returns the topology.
func (n *Network) Mesh() mesh.Mesh { return n.m }

// Stats returns the statistics collector, after writing it the window's
// link flits. Call only at a cycle boundary.
func (n *Network) Stats() *stats.Net {
	for c, w := range n.stats.LinkFlits {
		copy(w, n.linkAcc[c])
		if n.stats.Enabled {
			for i, v := range n.spine.Link[c] {
				w[i] += v - n.linkBase[c][i]
			}
		}
	}
	return n.stats
}

// EnableStats opens or closes the measurement window (a repeat is a no-op):
// opening copies spine.Link to linkBase, closing adds the window to linkAcc.
// The collector's per-packet accounting follows Enabled.
func (n *Network) EnableStats(on bool) {
	if on == n.stats.Enabled {
		return
	}
	for c, link := range n.spine.Link {
		if on {
			copy(n.linkBase[c], link)
			continue
		}
		for i, v := range link {
			n.linkAcc[c][i] += v - n.linkBase[c][i]
		}
	}
	n.stats.Enabled = on
}

// Close does nothing: the kernel holds no goroutine or other resource to
// release. It is kept only for callers written against the retired
// lane-parallel kernel.
func (n *Network) Close() {}

// Cycle returns the current cycle count.
func (n *Network) Cycle() int64 { return n.cycle }

// FlitsInFlight returns the number of flits buffered in the fabric: Inject
// adds a packet's flits, and the ejection of each takes one away.
func (n *Network) FlitsInFlight() int { return n.inFlight }

// stuck reports no movement for the trailing window cycles.
func (n *Network) stuck(window int64) bool { return n.cycle-n.lastMove >= window }

// Quiescent reports whether nothing has moved for window cycles with flits
// still in flight: the protocol-deadlock watchdog.
func (n *Network) Quiescent(window int64) bool {
	return n.FlitsInFlight() > 0 && n.stuck(window)
}

// Inject queues p at its source node. The packet's CreatedAt should already
// be stamped by the caller; InjectedAt is stamped when the head flit enters
// the router.
//
// Endpoints call it from the endpoint stage (SetStage) or between cycles
// (tests, the synthetic harness). A refusal marks the queue, so the drain
// that next frees space in it calls the node's inject wake (see
// SetInjectWake).
func (n *Network) Inject(p *packet.Packet) bool {
	q := &n.inj[p.Src]
	if q.flits+p.Flits > injQueueFlits {
		q.refused = true
		n.refusedInjects++
		return false
	}
	if q.empty() {
		// A non-empty queue is scheduled already, or blocked and stays so.
		n.queues.set(p.Src)
	}
	q.Push(p)
	q.flits += p.Flits
	n.inFlight += p.Flits
	if n.spans != nil {
		n.spans.Offer(p)
	}
	return true
}

// InjectSpace returns free flit slots in the node's injection queue.
func (n *Network) InjectSpace(node mesh.NodeID) int {
	q := &n.inj[node]
	return injQueueFlits - q.flits
}

// SetSink installs the ejection callback for node.
func (n *Network) SetSink(node mesh.NodeID, s Sink) { n.sinks[node] = s }

// SetInjectWake installs the inject-wake callback for node.
func (n *Network) SetInjectWake(node mesh.NodeID, wake func()) { n.injWake[node] = wake }

// SetStage installs the endpoint stage every cycle starts with.
func (n *Network) SetStage(fn func(node int) bool) { n.stage = fn }

// Ticking reports whether node's ticks bit is set.
func (n *Network) Ticking(node mesh.NodeID) bool { return n.ticks.has(int(node)) }

// SetSpans installs the per-packet span collector (nil disables span
// tracing). Probe sites gate on the collector pointer and the packet's
// Sampled bit, so tracing off costs one branch per site.
func (n *Network) SetSpans(sp *obs.Spans) { n.spans = sp }

// AttachTelemetry registers this network's probe set on reg (nil is a
// no-op). Counters read the spine and stall tallies through; instantaneous
// levels (VC occupancy, injection-queue backlog) are GaugeFuncs read only
// when the epoch sampler fires, so they cost nothing per cycle.
func (n *Network) AttachTelemetry(reg *telemetry.Registry) {
	n.attachTelemetry(reg, "")
}

// attachTelemetry is AttachTelemetry with a probe-name prefix, so the two
// subnets of a Dual register disjoint names ("req.", "rep.").
func (n *Network) attachTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	sp := n.spine
	sp.StallCredit = &n.stalls[obs.StallCredit]
	sp.StallRoute = &n.stalls[obs.StallRoute]
	sp.StallVCAlloc = &n.stalls[obs.StallVCAlloc]
	n.tel = telemetry.NewNetProbes(reg, n.m, prefix, sp)
	// Buffer-fill gauges live here because VC buffers are router-private:
	// one GaugeFunc per (link, VC) reading the downstream input buffer, and
	// one per node reading the injection-queue backlog.
	for i := range n.routers {
		rt := &n.routers[i]
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			for v := 0; v < n.vcs; v++ {
				buf := &n.routers[op.downNode].in[op.downPort][v].buf
				n.tel.VCOccupancy(mesh.Link{From: rt.id, Dir: d}, v,
					func() int64 { return int64(buf.len()) })
			}
		}
	}
	for id := range n.inj {
		q := &n.inj[id]
		n.tel.InjQueue(mesh.NodeID(id), func() int64 { return int64(q.flits) })
	}
}

// sinkAccept offers f to the node's sink; true means the sink consumed it.
func (n *Network) sinkAccept(node mesh.NodeID, f packet.Flit) bool {
	s := n.sinks[node]
	if s == nil {
		panic(fmt.Sprintf("noc: ejection at node %d with no sink", node))
	}
	return s(f)
}

// queueCredit returns a credit for input VC vcIdx of rt's port inPort to the
// upstream output port, which sees it next cycle: the one-cycle credit loop.
// A router the walk has already passed (a lower ID) takes it at once; any
// other gets it in the port's pending tally, the port on the network's list.
func (n *Network) queueCredit(rt *router, inPort mesh.Direction, vcIdx int) {
	op := rt.upstream[inPort]
	if op == nil {
		panic("noc: credit return for a port with no upstream link")
	}
	if up := rt.out[inPort].downNode; up < rt.id { // op's router: rt's neighbour through inPort
		n.landCredits(op, vcIdx, 1)
		n.creditsInPlace++
		return
	}
	n.creditsDeferred++
	op.pending[vcIdx]++
	if !op.dirty {
		op.dirty = true
		n.credits = append(n.credits, op)
	}
}

// landCredits gives output VC v of op k credits.
func (n *Network) landCredits(op *outPort, v, k int) {
	if op.credits[v] == 0 && op.owner[v] != noOwner {
		// The VC's holder can send again, so its router has a switch
		// candidate: wake it.
		op.rt.credOK |= 1 << op.owner[v]
		n.idle.clear(int(op.rt.id))
	}
	op.credits[v] += k
}

// applyCredits lands the listed ports' pending credits and empties the list,
// after the router phase.
func (n *Network) applyCredits() {
	for _, op := range n.credits {
		for v, pend := range op.pending {
			if pend != 0 {
				n.landCredits(op, v, pend)
				op.pending[v] = 0
			}
		}
		op.dirty = false
	}
	n.credits = n.credits[:0]
}

// injectNode moves up to injRate flits from the node's injection queue into
// local input VCs of its router. A visit that moves nothing — no admissible
// local VC has space, or the mid-packet VC is full — found the queue blocked:
// only a pop from one of those VCs (traverse) can change the outcome, so the
// queue is unscheduled until then, as is one the visit emptied. A visit that
// frees space in a queue that has refused a packet owes the node its wake.
func (n *Network) injectNode(id int) {
	q := &n.inj[id]
	if q.empty() {
		return
	}
	rt := &n.routers[id]
	localBase := int(mesh.Local) * n.vcs
	budget := n.injRate
	for budget > 0 && !q.empty() {
		p := q.Front()
		if q.sent == 0 {
			// Pick the allowed local VC with the most free space; any
			// choice is correct (flits within a VC stay FIFO), emptiest
			// balances load.
			r := n.injRng[id][p.Class()]
			best, bestFree := -1, 0
			for v := r.Lo; v < r.Hi; v++ {
				if free := rt.in[mesh.Local][v].buf.free(); free > bestFree {
					best, bestFree = v, free
				}
			}
			if best == -1 {
				break // all local VCs full; retry next cycle
			}
			q.vc = best
			p.InjectedAt = n.cycle
			if n.spans != nil && p.Sampled {
				n.spans.Injected(p, best, n.cycle)
			}
		}
		ivc := &rt.in[mesh.Local][q.vc]
		for budget > 0 && q.sent < p.Flits && ivc.buf.free() > 0 {
			f := packet.Flit{Pkt: p, Seq: q.sent, Head: q.sent == 0, Tail: q.sent == p.Flits-1}
			n.enqueue(rt, localBase+q.vc, f)
			q.sent++
			q.flits--
			budget--
			n.moved = true
			n.spine.Inj[id]++
		}
		if q.sent < p.Flits {
			break // out of budget or VC space mid-packet
		}
		q.Pop()
		q.sent = 0
		q.vc = -1
	}
	if budget == n.injRate || q.empty() {
		n.queues.clear(id)
	}
	if budget < n.injRate && q.refused {
		q.refused = false
		n.ticks.set(id)
		if wake := n.injWake[id]; wake != nil {
			wake()
		}
	}
}

// deliverReady delivers this router's completed link traversals, walking
// its busy link registers: flits whose link occupancy has elapsed arrive at
// downstream buffers. A half-width link (period 2) holds each flit an extra
// cycle, blocking the next switch traversal through that port.
func (n *Network) deliverReady(rt *router) {
	for busy := rt.regBusy; busy != 0; busy &= busy - 1 {
		if op := &rt.out[bits.TrailingZeros8(busy)]; op.regReadyAt <= n.cycle {
			n.deliver(op)
		}
	}
}

// deliver commits one link traversal: the flit in op's register arrives at
// the downstream input buffer and the register frees.
func (n *Network) deliver(op *outPort) {
	n.enqueue(&n.routers[op.downNode], int(op.downPort)*n.vcs+op.regVC, op.reg)
	op.rt.regBusy &^= 1 << op.downPort.Opposite()
	if op.rt.regBusy == 0 {
		n.links.clear(int(op.rt.id))
	}
}

// finishCycle is the tail of every step: it stamps the last cycle a flit
// moved, then advances the cycle.
func (n *Network) finishCycle() {
	if n.moved {
		n.lastMove = n.cycle
	}
	n.cycle++
	n.stats.Cycles = n.cycle
}

// Step advances the network by one cycle: the endpoint stage, injection,
// router pipelines (VA/SA/ST; RC runs where a head reaches the front of its
// VC), link traversal, credits — then the tail; schedule.go says where each
// flit and credit lands. A phase visits only the nodes its run mask names,
// in ascending id order; a visit it skips would have done nothing, so the
// cycle is the one the specification model (spec_test.go), which visits
// every node and router, computes.
func (n *Network) Step() {
	if n.stage != nil {
		n.tickPhase()
	}
	n.injectPhase()
	n.routerPhase()
	n.linkPhase()
	n.applyCredits()
	n.finishCycle()
}

// CheckInvariants validates internal consistency; tests call it after
// stepping and the gpu sanitizer samples it during runs. It recounts, from
// buffer, per-VC routing and VC ownership state alone: credit accounting
// per (output port, VC) against the per-port pending tally, flit
// conservation, that every occupied VC's front is routed, every router's
// flit counter, request masks and pipeline-gate stamps, the run masks (a
// buffered bit says the recounted flits are non-zero, a links bit that a
// register is busy, a queues bit that the queue holds a packet; the ticks
// mask is the gpu sanitizer's to check), and every sleeper's
// reason to sleep: an idle router must have nothing a visit could act on
// (runnable), a non-empty unscheduled queue no local VC space it could use
// (injectable).
// A scheduled queue may turn out blocked: spurious wakes are legal.
func (n *Network) CheckInvariants() error {
	count := 0
	for i := range n.routers {
		rt := &n.routers[i]
		bufFlits := 0
		var want reqMasks // what the per-VC and ownership state says the masks should read
		for idx := range rt.vcs {
			ivc := &rt.vcs[idx]
			bit := uint64(1) << idx
			if occ := ivc.buf.len(); occ > 0 {
				count += occ
				bufFlits += occ
				want.occ |= bit
				if ready := ivc.buf.frontArrived() + n.pipeDelay; ivc.readyAt != ready {
					return fmt.Errorf("noc: pipeline gate at %v input VC %d: readyAt %d, front flit is ready at %d",
						rt.coord, idx, ivc.readyAt, ready)
				}
				if !ivc.routed {
					return fmt.Errorf("noc: input VC %d at %v holds an unrouted front: RC at the front was skipped", idx, rt.coord)
				}
			}
			if !ivc.routed {
				continue
			}
			want.want[ivc.route] |= bit
			switch {
			case ivc.route == mesh.Local:
				want.credOK |= bit
			case ivc.outVC == -1:
				// VA trusts that a requester still has its head at the front.
				if ivc.buf.len() == 0 || !ivc.buf.front().flit.Head || ivc.buf.front().flit.Pkt.Class() != ivc.cls {
					return fmt.Errorf("noc: input VC %d at %v awaits an output VC without a class-%s head at its front", idx, rt.coord, ivc.cls)
				}
				want.vaWait[ivc.route][ivc.cls] |= bit
			case rt.out[ivc.route].credits[ivc.outVC] > 0:
				want.credOK |= bit
			}
		}
		for d := range want.freeVC {
			for v, o := range rt.out[d].owner {
				if o == noOwner {
					want.freeVC[d] |= 1 << v
				}
			}
		}
		if rt.reqMasks != want {
			name, got, exp := rt.reqMasks.firstDiff(&want)
			return fmt.Errorf("noc: request mask %s at %v: %#x, per-VC state says %#x (bit %d)",
				name, rt.coord, got, exp, bits.TrailingZeros64(got^exp))
		}
		if n.idle.has(i) {
			if cause := n.runnable(rt); cause != "" {
				return fmt.Errorf("noc: router %v is idle, but %s", rt.coord, cause)
			}
		}
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			busy := rt.regBusy>>d&1 != 0
			if busy {
				count++
			}
			down := &n.routers[op.downNode]
			for vcIdx, cr := range op.credits {
				occ := down.in[op.downPort][vcIdx].buf.len()
				pending := op.pending[vcIdx]
				inReg := 0
				if busy && op.regVC == vcIdx {
					inReg = 1
				}
				if cr+occ+pending+inReg != n.depth {
					return fmt.Errorf("noc: credit leak at %v out %s vc %d: credits %d + occupancy %d + pending %d + reg %d != depth %d",
						rt.coord, d, vcIdx, cr, occ, pending, inReg, n.depth)
				}
			}
		}
		if bufFlits != rt.bufFlits {
			return fmt.Errorf("noc: occupancy counter at %v: bufFlits %d (counted %d)", rt.coord, rt.bufFlits, bufFlits)
		}
		if n.buffered.has(i) != (bufFlits > 0) {
			return fmt.Errorf("noc: run mask buffered at %v reads %t, recounted bufFlits %d", rt.coord, n.buffered.has(i), bufFlits)
		}
		if n.links.has(i) != (rt.regBusy != 0) {
			return fmt.Errorf("noc: run mask links at %v reads %t, regBusy %#x", rt.coord, n.links.has(i), rt.regBusy)
		}
	}
	for i := range n.inj {
		q := &n.inj[i]
		count += q.flits
		switch scheduled := n.queues.has(i); {
		case scheduled && q.empty():
			return fmt.Errorf("noc: injection queue of node %d is scheduled, but it is empty", i)
		case !scheduled && !q.empty():
			if cause := n.injectable(i); cause != "" {
				return fmt.Errorf("noc: injection queue of node %d is blocked, but %s", i, cause)
			}
		}
	}
	if tracked := n.FlitsInFlight(); count != tracked {
		return fmt.Errorf("noc: flit conservation broken: counted %d, tracked %d", count, tracked)
	}
	return nil
}

// runnable re-derives, from the per-VC state and the output ports' owner and
// credit tables alone (not from the masks), whether a visit to rt could do
// anything: it names the first thing VA or SA would act on — whose wake an
// idle router must therefore have missed — or returns "". A front is routed
// where it lands, so a routed front VA or SA could act on at an idle router
// arrived in an empty VC without its wake. Side-effect free.
func (n *Network) runnable(rt *router) string {
	const lostPush = "the wake of a push into an empty VC was lost"
	for i := range rt.vcs {
		ivc := &rt.vcs[i]
		if ivc.buf.len() == 0 {
			continue
		}
		switch {
		case ivc.route == mesh.Local:
			return fmt.Sprintf("input VC %d is routed to the ejection port: %s", i, lostPush)
		case ivc.outVC == -1:
			op := &rt.out[ivc.route]
			for ovc, o := range op.owner {
				if o == noOwner && op.elig[ivc.cls]>>ovc&1 != 0 {
					return fmt.Sprintf("input VC %d waits for an output VC on %s and VC %d is free: %s", i, ivc.route, ovc, lostPush)
				}
			}
		case rt.out[ivc.route].credits[ivc.outVC] > 0:
			return fmt.Sprintf("input VC %d holds output VC %d on %s with %d credits: the credit wake was lost",
				i, ivc.outVC, ivc.route, rt.out[ivc.route].credits[ivc.outVC])
		}
	}
	return ""
}

// injectable re-derives whether a blocked queue — non-empty, not scheduled —
// still has its reason: it names the local VC with space injectNode could
// use, whose pop the queue must have missed, or returns "". Side-effect free.
func (n *Network) injectable(id int) string {
	q := &n.inj[id]
	local := n.routers[id].in[mesh.Local]
	if q.sent > 0 {
		if free := local[q.vc].buf.free(); free > 0 {
			return fmt.Sprintf("its mid-packet local VC %d has %d free slots: the unblock of a Local pop was lost", q.vc, free)
		}
		return ""
	}
	r := n.injRng[id][q.Front().Class()]
	for v := r.Lo; v < r.Hi; v++ {
		if free := local[v].buf.free(); free > 0 {
			return fmt.Sprintf("local VC %d has %d free slots: the unblock of a Local pop was lost", v, free)
		}
	}
	return ""
}
