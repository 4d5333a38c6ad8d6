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
// one run mask (parallel.go) — the routers holding buffered flits, the
// routers with an occupied link register, the injection queues worth a
// visit. The masks are exact, set and cleared where the count they summarize
// leaves or reaches zero and recounted by CheckInvariants, so a drained
// network steps for free and a saturated one pays a word load per 64 nodes.
// A naive full-scan stepper (stepReference) is retained as the equivalence
// oracle: it is selectable only from this package's tests (export_test.go),
// ignores the masks, and must produce bit-identical results; both steppers
// share every phase helper and visit routers in ascending ID order, which
// pins the floating-point statistics accumulation order.
//
// The kernel can additionally step the mesh as several spatial domains in
// parallel (config: NoC.Workers; see parallel.go): contiguous row stripes,
// cut by counted work, each run a whole cycle per barrier, and all
// cross-domain effects merge in a fixed lane order — so results stay
// bit-identical for every worker count and every cut.
package noc

import (
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/fleetobs"
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
// after the sink returns until the cycle ends (traverse's ejection count and
// span event, the serial tail's telemetry), so no new packet may be drawn
// from it before then: an SM draws only in Tick, and an MC, which ejects one
// tail a cycle at most, draws a reply before it releases the request. Nothing
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
	// the interconnect calls that node's wake, on the lane that owns the
	// node, once it has freed any space in the queue that refused; it may
	// call it spuriously (the freed space need not fit the refused packet,
	// and a refusal the caller has since retried still counts). So a caller
	// that registers a wake may stop retrying a refused Inject until the
	// wake runs; a caller that registers nothing may keep polling.
	SetInjectWake(node mesh.NodeID, wake func())
	// SetStage installs the endpoint stage, the same idiom as SetSink: every
	// Step first runs fn over disjoint node ranges [lo, hi) that together
	// cover the mesh, once per kernel lane, on the goroutine that then steps
	// that lane's routers. Within one call fn may touch only the endpoints on
	// nodes in its range, and of the interconnect only Inject and InjectSpace
	// for those nodes. nil removes the stage.
	SetStage(fn func(lo, hi int))
	// Step advances the network one cycle.
	Step()
	// Rebalance lets the kernel re-cut its lanes by the work counted since
	// the previous call: its own router visits plus endpointWork(lo, hi), the
	// caller's cumulative count of endpoint work on nodes [lo, hi). Counts
	// only: the cut is reproducible, and results never depend on it.
	Rebalance(endpointWork func(lo, hi int) int64)
	// Cycle returns the number of completed cycles.
	Cycle() int64
	// Stats returns the collector (merged across subnets for Dual).
	Stats() *stats.Net
	// EnableStats toggles measurement collection (off during warmup).
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
	// reg. A nil registry leaves the fabric un-instrumented: every probe
	// site then costs one predictable nil check.
	AttachTelemetry(reg *telemetry.Registry)
	// SetSpans installs the per-packet span collector (nil disables span
	// tracing; disabled tracing costs one predictable nil check per probe
	// site).
	SetSpans(sp *obs.Spans)
	// SetRecorder installs the flight recorder capturing kernel-structure
	// events (pool spawn/park, lane cuts). The recorder itself is
	// nil-receiver safe, so record sites pay one predictable nil check;
	// recording never influences simulation results.
	SetRecorder(r *fleetobs.Recorder)
	// StateSnapshot captures per-link/per-VC occupancy, how many routers and
	// injection queues hold work, and the live lane cut. Invoke it only at a cycle
	// boundary (between Step calls) so the kernel is never read mid-phase.
	StateSnapshot() obs.MeshState
	// Reset returns the interconnect to the state a run starts from (see
	// Network.Reset), keeping its storage and what is installed on it, and
	// hands every packet in flight to release (nil drops them).
	Reset(release func(*packet.Packet))
	// Close stops the kernel's lane workers, if any are running. The
	// interconnect stays usable (the next parallel phase respawns them);
	// call at a cycle boundary, typically deferred after construction.
	Close()
}

// injQueue is a node's bounded injection FIFO, in flits. The packets sit in
// a packet.FIFO, so the backing array is reused in steady state and a
// consumed packet is not pinned for the arena's lifetime.
type injQueue struct {
	packet.FIFO     // packets not yet fully injected
	sent        int // flits of the front packet already pushed into the router
	flits       int // total flits queued (for capacity accounting)
	cap         int
	vc          int // local input VC receiving the current packet

	// refused: Inject turned a packet away since the queue last drained a
	// flit; the drain that clears it owes the node its inject wake.
	refused bool
}

func (q *injQueue) empty() bool { return q.Len() == 0 }

// routeTabMaxNodes bounds the dense route-table precompute (NumClasses ×
// N² bytes); beyond it RC falls back to the algorithm call.
const routeTabMaxNodes = 1024

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
	// reference selects the naive full-scan stepper instead of the
	// run-mask kernel; results must be bit-identical. Test-only: nothing
	// outside this package's _test.go files sets it.
	reference bool

	routers []router
	inj     []injQueue
	sinks   []Sink
	injWake []func() // per node; nil for a node whose endpoint polls

	// lanes are the kernel's spatial domains: contiguous row stripes, each
	// owning its nodes' run masks, stats shard, and cross-domain outboxes
	// (see parallel.go). A single lane covering the whole mesh is the serial
	// kernel. laneOf maps each node ID to its owning lane; lane i owns rows
	// [cut[i], cut[i+1]). Rebalance keeps, per row, the last window's work
	// and the cumulative count behind it, and each lane's share of that
	// window under the cut.
	lanes            []lane
	laneOf           []int32
	cut              []int
	rowWork, rowSeen []int64
	laneWork         []float64

	// pool is the lane executor (parallel.go); a Dual's two subnets share
	// one. Its goroutines are spawned lazily by the first pooled Step and
	// stopped by Close. stage is the endpoint stage SetStage installed.
	pool  *workerPool
	stage func(lo, hi int)

	// routeTab caches the routing algorithm per (class, current, dest):
	// NextHop is a pure function of those three, so RC becomes one array
	// load instead of an interface call. nil when the mesh exceeds
	// routeTabMaxNodes.
	routeTab [packet.NumClasses][]uint8
	// injRng caches the injection VC range per (node, class).
	injRng [][packet.NumClasses]vc.Range

	stats    *stats.Net
	tel      *telemetry.NetProbes
	spans    *obs.Spans
	frec     *fleetobs.Recorder
	cycle    int64
	moved    bool
	lastMove int64
	inFlight int // flits inside routers + injection queues as of the last serial tail; see FlitsInFlight
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

// WithInjectionQueue overrides the per-node injection queue capacity in
// flits (default 16).
func WithInjectionQueue(flits int) Option {
	return func(n *Network) {
		for i := range n.inj {
			n.inj[i].cap = flits
		}
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
	n.buildLanes(cfg.Workers, cfg.Width, cfg.Height)
	arena := newRouterArena(nn, n.vcs, n.depth)
	for id := range n.routers {
		rt := &n.routers[id]
		rt.init(mesh.NodeID(id), m, n.vcs, n.depth, arena)
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			l := mesh.Link{From: rt.id, Dir: d}
			op.rng[packet.Request] = pol.RangeFor(l, op.orient, packet.Request)
			op.rng[packet.Reply] = pol.RangeFor(l, op.orient, packet.Reply)
		}
		for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
			n.injRng[id][cls] = pol.RangeFor(mesh.Link{From: mesh.NodeID(id), Dir: mesh.Local}, mesh.LocalPort, cls)
		}
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
	if nn <= routeTabMaxNodes {
		for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
			tab := make([]uint8, nn*nn)
			for cur := 0; cur < nn; cur++ {
				cc := m.Coord(mesh.NodeID(cur))
				for dst := 0; dst < nn; dst++ {
					tab[cur*nn+dst] = uint8(alg.NextHop(cc, m.Coord(mesh.NodeID(dst)), cls))
				}
			}
			n.routeTab[cls] = tab
		}
	}
	for i := range n.inj {
		n.inj[i].cap = 16
	}
	for _, o := range opts {
		o(n)
	}
	for i := range n.inj {
		if c := n.inj[i].cap; c < packet.LongFlits {
			// Inject admits whole packets, so such a queue would refuse every
			// long packet forever — silently: the endpoint waits for a drain
			// that cannot come and the watchdog sees no flit in flight.
			panic(fmt.Sprintf("noc: injection queue of %d flits at node %d cannot hold a %d-flit packet", c, i, packet.LongFlits))
		}
	}
	n.Reset(nil)
	return n
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
			if op := &rt.out[d]; op.regValid && op.reg.Tail {
				release(op.reg.Pkt)
			}
		}
	}
}

// Reset returns the network to the state a run starts from — every buffer,
// link register and injection queue empty, every output VC free with full
// credits, arbitration pointers and counters zero, the lanes cut into equal
// stripes, cycle 0 — keeping its storage and everything installed on it
// (sinks, wakes, stage, probes). New ends with it, so it is the one place a
// run's network state is set. Every packet in flight goes to release, once,
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
	n.resetLanes()
	n.stats = stats.NewNet(n.m)
	n.cycle, n.moved, n.lastMove, n.inFlight = 0, false, 0, 0
}

// Mesh returns the topology.
func (n *Network) Mesh() mesh.Mesh { return n.m }

// Stats returns the statistics collector, after folding every lane's shard
// into it in lane order. Call only at a cycle boundary.
func (n *Network) Stats() *stats.Net {
	n.foldStats()
	return n.stats
}

// EnableStats toggles measurement collection, on the folded collector and
// every lane shard alike.
func (n *Network) EnableStats(on bool) {
	n.stats.Enabled = on
	for i := range n.lanes {
		n.lanes[i].stats.Enabled = on
	}
}

// Close stops the lane workers, if any were spawned. The network remains
// usable — a later parallel phase respawns them — so Close is safe to defer
// as soon as the network is built. Call only at a cycle boundary.
func (n *Network) Close() {
	if n.pool.stop() {
		n.frec.Record(n.cycle, fleetobs.KindPool, 0, 0, 0)
	}
}

// Cycle returns the current cycle count.
func (n *Network) Cycle() int64 { return n.cycle }

// FlitsInFlight returns the number of flits buffered in the fabric: the
// count as of the last serial tail plus what Inject has accepted since,
// which sits in per-lane tallies so endpoints on different lanes can inject
// concurrently.
func (n *Network) FlitsInFlight() int {
	total := n.inFlight
	for i := range n.lanes {
		total += n.lanes[i].injectedFlits
	}
	return total
}

// stuck reports no movement for the trailing window cycles.
func (n *Network) stuck(window int64) bool { return n.cycle-n.lastMove >= window }

// Quiescent reports whether nothing has moved for window cycles with flits
// still in flight: the protocol-deadlock watchdog.
func (n *Network) Quiescent(window int64) bool {
	return n.FlitsInFlight() > 0 && n.stuck(window)
}

// laneAt returns the lane owning node id, whose run masks hold id's bits, for
// code outside the phases (they are handed their lane).
func (n *Network) laneAt(id int) *lane { return &n.lanes[n.laneOf[id]] }

// Inject queues p at its source node. The packet's CreatedAt should already
// be stamped by the caller; InjectedAt is stamped when the head flit enters
// the router.
//
// Endpoints call it from the endpoint stage (SetStage), so it runs on
// whichever goroutine steps the lane owning p.Src, concurrently with other
// lanes' cycles: everything it writes — the node's queue, the lane's
// injected-flit tally and queues mask — belongs to that lane. Between cycles
// (tests, the synthetic harness) it is plain serial code. A refusal marks
// the queue, so the drain that next frees space in it calls the node's
// inject wake (see SetInjectWake).
func (n *Network) Inject(p *packet.Packet) bool {
	q := &n.inj[p.Src]
	ln := &n.lanes[n.laneOf[p.Src]]
	if q.flits+p.Flits > q.cap {
		q.refused = true
		ln.refusedInjects++
		return false
	}
	if q.empty() {
		// A non-empty queue is scheduled already, or blocked and stays so.
		ln.queues.set(p.Src)
	}
	q.Push(p)
	q.flits += p.Flits
	ln.injectedFlits += p.Flits
	if n.spans != nil {
		n.spans.Offer(p)
	}
	return true
}

// InjectSpace returns free flit slots in the node's injection queue.
func (n *Network) InjectSpace(node mesh.NodeID) int {
	q := &n.inj[node]
	return q.cap - q.flits
}

// SetSink installs the ejection callback for node.
func (n *Network) SetSink(node mesh.NodeID, s Sink) { n.sinks[node] = s }

// SetInjectWake installs the inject-wake callback for node.
func (n *Network) SetInjectWake(node mesh.NodeID, wake func()) { n.injWake[node] = wake }

// SetStage installs the endpoint stage every lane's cycle starts with.
func (n *Network) SetStage(fn func(lo, hi int)) { n.stage = fn }

// SetSpans installs the per-packet span collector (nil disables span
// tracing). Probe sites gate on the collector pointer and the packet's
// Sampled bit, so tracing off costs one branch per site.
func (n *Network) SetSpans(sp *obs.Spans) { n.spans = sp }

// SetRecorder installs the flight recorder for kernel-structure events
// (nil, the default, disables recording — and a nil *fleetobs.Recorder is
// itself a no-op receiver, so record sites need no gate).
func (n *Network) SetRecorder(r *fleetobs.Recorder) { n.frec = r }

// StateSnapshot captures the fabric's occupancy for the /state endpoint.
// Call only at a cycle boundary.
func (n *Network) StateSnapshot() obs.MeshState {
	st := n.subnetState("")
	return obs.MeshState{
		Cycle:    n.cycle,
		Width:    n.m.Width,
		Height:   n.m.Height,
		InFlight: st.InFlight,
		Lanes:    n.laneStates(),
		Subnets:  []obs.SubnetState{st},
	}
}

// laneStates reports the live cut: each lane's rows and work share (obs.LaneState).
func (n *Network) laneStates() []obs.LaneState {
	out := make([]obs.LaneState, len(n.lanes))
	for i := range out {
		out[i] = obs.LaneState{Lane: i, FirstRow: n.cut[i], Rows: n.cut[i+1] - n.cut[i], WorkShare: n.laneWork[i]}
	}
	return out
}

// subnetState snapshots one physical network under a subnet name.
func (n *Network) subnetState(name string) obs.SubnetState {
	st := obs.SubnetState{
		Subnet:   name,
		Cycle:    n.cycle,
		InFlight: n.FlitsInFlight(),
		Links:    make([]obs.LinkState, 0, len(n.routers)*mesh.NumLinkDirs),
		Nodes:    make([]obs.NodeState, 0, len(n.routers)),
	}
	for i := range n.routers {
		rt := &n.routers[i]
		if rt.bufFlits > 0 || rt.regCount > 0 {
			st.ActiveRouters++
		}
		if !n.inj[i].empty() {
			st.ActiveInjectors++
		}
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			ls := obs.LinkState{
				From:    i,
				To:      int(op.downNode),
				Dir:     d.String(),
				VCs:     make([]int, n.vcs),
				RegBusy: op.regValid,
			}
			down := &n.routers[op.downNode]
			for v := 0; v < n.vcs; v++ {
				ls.VCs[v] = down.in[op.downPort][v].buf.len()
			}
			st.Links = append(st.Links, ls)
		}
		c := n.m.Coord(rt.id)
		ns := obs.NodeState{
			Node:     i,
			Row:      c.Row,
			Col:      c.Col,
			InjQ:     n.inj[i].flits,
			LocalVCs: make([]int, n.vcs),
		}
		for v := 0; v < n.vcs; v++ {
			ns.LocalVCs[v] = rt.in[mesh.Local][v].buf.len()
		}
		st.Nodes = append(st.Nodes, ns)
	}
	return st
}

// AttachTelemetry registers this network's probe set on reg (nil is a
// no-op). Counting sites are gated on one nil check; instantaneous levels
// (VC occupancy, injection-queue backlog) are GaugeFuncs read only when the
// epoch sampler fires, so they cost nothing per cycle.
func (n *Network) AttachTelemetry(reg *telemetry.Registry) {
	n.attachTelemetry(reg, "")
}

// attachTelemetry is AttachTelemetry with a probe-name prefix, so the two
// subnets of a Dual register disjoint names ("req.", "rep.").
func (n *Network) attachTelemetry(reg *telemetry.Registry, prefix string) {
	if reg == nil {
		return
	}
	n.tel = telemetry.NewNetProbes(reg, n.m, prefix)
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

// queueCredit defers a credit increment to the end of the cycle, modelling
// a one-cycle credit loop uniformly regardless of router iteration order.
// The credit lands in the upstream output port's pending tally, and the port
// on ln's own list when ln also owns the port's router, on the boundary list
// otherwise. Race-freedom: each output port feeds exactly one input port, so
// (op.pending, op.dirty) are written only by the lane owning the downstream
// router — a boundary port's owning lane concurrently touches only disjoint
// fields (credits, reg, owner).
func (n *Network) queueCredit(ln *lane, rt *router, inPort mesh.Direction, vcIdx int) {
	op := rt.upstream[inPort]
	if op == nil {
		panic("noc: credit return for a port with no upstream link")
	}
	op.pending[vcIdx]++
	if !op.dirty {
		op.dirty = true
		list := &ln.creditDirty
		if up := int(rt.out[inPort].downNode); up >= ln.lo && up < ln.hi { // op's router: rt's neighbour through inPort
			list = &ln.creditLocal
		}
		*list = append(*list, op)
	}
}

// applyCredits lands the listed ports' pending credits and empties the list.
// It writes the routers owning the ports: a lane may call it only on its own
// list, after its router phase; the rest waits for the serial tail.
func (n *Network) applyCredits(list *[]*outPort) {
	for _, op := range *list {
		for v, pend := range op.pending {
			if pend == 0 {
				continue
			}
			if op.credits[v] == 0 && op.owner[v] != noOwner {
				// The VC's holder can send again, so its router has a
				// switch candidate: wake it.
				op.rt.credOK |= 1 << op.owner[v]
				op.rt.idle = false
			}
			op.credits[v] += pend
			op.pending[v] = 0
		}
		op.dirty = false
	}
	*list = (*list)[:0]
}

// injectNode moves up to injRate flits from the node's injection queue into
// local input VCs of its router. A visit that moves nothing — no admissible
// local VC has space, or the mid-packet VC is full — found the queue blocked:
// only a pop from one of those VCs (traverse) can change the outcome, so the
// queue is unscheduled until then, as is one the visit emptied. A visit that
// frees space in a queue that has refused a packet owes the node its wake.
func (n *Network) injectNode(ln *lane, id int) {
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
			ln.stats.CountInjection(p)
			if n.spans != nil && p.Sampled {
				n.spans.Injected(p, best, n.cycle)
			}
		}
		ivc := &rt.in[mesh.Local][q.vc]
		for budget > 0 && q.sent < p.Flits && ivc.buf.free() > 0 {
			f := packet.Flit{Pkt: p, Seq: q.sent, Head: q.sent == 0, Tail: q.sent == p.Flits-1}
			n.enqueue(ln, rt, localBase+q.vc, f)
			q.sent++
			q.flits--
			budget--
			ln.moved = true
			if n.tel != nil {
				// Single writer: node id injects only on its owning lane.
				n.tel.InjFlits[id].Inc()
			}
		}
		if q.sent < p.Flits {
			break // out of budget or VC space mid-packet
		}
		q.Pop()
		q.sent = 0
		q.vc = -1
	}
	if budget == n.injRate || q.empty() {
		ln.queues.clear(id)
	}
	if budget < n.injRate && q.refused {
		q.refused = false
		if wake := n.injWake[id]; wake != nil {
			wake()
		}
	}
}

// linkPhase delivers this router's completed link traversals: flits whose
// link occupancy has elapsed arrive at downstream buffers. A half-width link
// (period 2) holds each flit an extra cycle, blocking the next switch
// traversal through that port.
//
// Deliveries into routers the lane owns commit immediately; deliveries that
// cross a domain boundary are deferred to the lane's outbox and applied by
// the serial tail in lane order, so two lanes never push into one router's
// buffers concurrently. Deferral is invisible to results: at most one flit
// crosses a link per cycle, deferred pushes land in disjoint rings with the
// same arrival stamp, and a mask bit set twice is set once.
func (n *Network) linkPhase(ln *lane, rt *router) {
	for d := mesh.North; d < mesh.Local; d++ {
		op := &rt.out[d]
		if !op.exists || !op.regValid || op.regReadyAt > n.cycle {
			continue
		}
		if dn := int(op.downNode); dn >= ln.lo && dn < ln.hi {
			n.deliver(ln, ln, op)
		} else {
			ln.outbox = append(ln.outbox, op)
		}
	}
}

// deliver commits one link traversal: the flit in op's register arrives at
// the downstream input buffer and the register frees. from owns op's router
// and to the downstream one; in the link phase they are the same lane.
func (n *Network) deliver(from, to *lane, op *outPort) {
	n.enqueue(to, &n.routers[op.downNode], int(op.downPort)*n.vcs+op.regVC, op.reg)
	op.regValid = false
	op.rt.regCount--
	if op.rt.regCount == 0 {
		from.links.clear(int(op.rt.id))
	}
}

// finishCycle is the serial tail of every step: with all lanes' cycles done
// (and their workers parked at the barrier), it merges cross-domain effects
// in lane order — the fixed merge order that makes results independent of
// worker count — then advances the cycle. Per lane: outbox deliveries
// (buffer pushes), boundary-port credit tallies, telemetry flush (stall
// counters, deferred per-packet latency observations), movement/in-flight
// folds. The run masks need no pass of their own: the deliveries keep them
// exact.
func (n *Network) finishCycle() {
	for li := range n.lanes {
		ln := &n.lanes[li]
		for _, op := range ln.outbox {
			n.deliver(ln, &n.lanes[n.laneOf[op.downNode]], op)
		}
		ln.outbox = ln.outbox[:0]
	}
	for li := range n.lanes {
		n.applyCredits(&n.lanes[li].creditDirty)
	}
	if n.tel != nil {
		for li := range n.lanes {
			ln := &n.lanes[li]
			if ln.stallVCAlloc != 0 {
				n.tel.StallVCAlloc.Add(ln.stallVCAlloc)
				ln.stallVCAlloc = 0
			}
			if ln.stallCredit != 0 {
				n.tel.StallCredit.Add(ln.stallCredit)
				ln.stallCredit = 0
			}
			if ln.stallRoute != 0 {
				n.tel.StallRoute.Add(ln.stallRoute)
				ln.stallRoute = 0
			}
			for _, p := range ln.ejected {
				n.tel.PacketEjected(p, n.cycle)
			}
			ln.ejected = ln.ejected[:0]
		}
	}

	moved := false
	for li := range n.lanes {
		ln := &n.lanes[li]
		moved = moved || ln.moved
		n.inFlight += ln.injectedFlits - ln.ejectedFlits
		ln.injectedFlits, ln.ejectedFlits = 0, 0
	}
	n.moved = moved

	if n.moved {
		n.lastMove = n.cycle
	}
	n.cycle++
	n.stats.Cycles = n.cycle
}

// Step advances the network by one cycle: every lane runs laneCycle — the
// endpoint stage, injection, router pipelines (RC/VA/SA/ST), link traversal,
// its own credits — and the serial tail then merges what crossed lanes
// (deliveries, boundary credits). Within each lane a phase visits only the
// nodes its run mask names, in ascending id order — exactly the order the
// reference full scan produces, so endpoint callbacks and statistics
// accumulate identically. The lanes run on the pool, one barrier generation
// per cycle, unless it has no goroutines (one lane, one P) or a span
// collector is attached — not thread-safe, order-sensitive; then the
// stepping goroutine runs them in lane order.
func (n *Network) Step() {
	switch {
	case n.reference:
		n.stepReference()
	case n.pool.workers > 0 && n.spans == nil:
		if n.pool.spawn() {
			n.frec.Record(n.cycle, fleetobs.KindPool, int64(n.pool.workers), 0, 0)
		}
		n.pool.run(n)
	default:
		for li := range n.lanes {
			n.laneCycle(&n.lanes[li])
		}
	}
	n.finishCycle()
}

// stepReference is the naive stepper: every node and every router, every
// cycle, whatever the run masks say, one phase at a time across the whole
// mesh — the classic order, lanes being contiguous ascending ID ranges,
// where Step runs each lane's cycle whole. It shares all phase helpers (and
// therefore all bookkeeping — the masks' upkeep included) with the shipped
// kernel; only iteration and order differ. Equivalence tests hold the two
// bit-identical.
func (n *Network) stepReference() {
	if n.stage != nil {
		n.stage(0, n.numNodes)
	}
	for li := range n.lanes {
		ln := &n.lanes[li]
		ln.moved = false
		for id := ln.lo; id < ln.hi; id++ {
			n.injectNode(ln, id)
		}
	}
	for li := range n.lanes {
		ln := &n.lanes[li]
		for i := ln.lo; i < ln.hi; i++ {
			rt := &n.routers[i]
			n.routeCompute(rt)
			n.vcAllocate(rt)
			n.switchAllocateAndTraverse(ln, rt)
		}
	}
	for li := range n.lanes {
		ln := &n.lanes[li]
		for i := ln.lo; i < ln.hi; i++ {
			n.linkPhase(ln, &n.routers[i])
		}
	}
	for li := range n.lanes {
		n.applyCredits(&n.lanes[li].creditLocal)
	}
}

// Drain runs the network until no flits remain in flight or maxCycles pass;
// it returns true if the network drained. Useful in tests.
func (n *Network) Drain(maxCycles int) bool {
	for i := 0; i < maxCycles && n.FlitsInFlight() > 0; i++ {
		n.Step()
	}
	return n.FlitsInFlight() == 0
}

// CheckInvariants validates internal consistency; tests call it after
// stepping and the gpu sanitizer samples it during runs. It recounts, from
// buffer and per-VC routing state alone: credit accounting per (output port,
// VC) against the per-port pending tally, flit conservation, every router's
// occupancy counters, request masks and pipeline-gate stamps, the partition,
// the run masks (a routers or links bit says its recounted counter is
// non-zero, a queues bit that the queue holds a packet), and every sleeper's
// reason to sleep:
// an idle router must have nothing a visit could act on (runnable), a
// non-empty unscheduled queue no local VC space it could use (injectable).
// A scheduled queue may turn out blocked: spurious wakes are legal.
func (n *Network) CheckInvariants() error {
	count := 0
	for i := range n.routers {
		rt := &n.routers[i]
		bufFlits, regCount := 0, 0
		var want reqMasks // what the per-VC state says the masks should read
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
			}
			if !ivc.routed {
				continue
			}
			want.rcDone |= bit
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
		if rt.reqMasks != want {
			name, got, exp := rt.reqMasks.firstDiff(&want)
			return fmt.Errorf("noc: request mask %s at %v: %#x, per-VC state says %#x", name, rt.coord, got, exp)
		}
		if rt.idle {
			if cause := n.runnable(rt); cause != "" {
				return fmt.Errorf("noc: router %v is idle, but %s", rt.coord, cause)
			}
		}
		for d := mesh.North; d < mesh.Local; d++ {
			op := &rt.out[d]
			if !op.exists {
				continue
			}
			if op.regValid {
				count++
				regCount++
			}
			down := &n.routers[op.downNode]
			for vcIdx, cr := range op.credits {
				occ := down.in[op.downPort][vcIdx].buf.len()
				pending := op.pending[vcIdx]
				inReg := 0
				if op.regValid && op.regVC == vcIdx {
					inReg = 1
				}
				if cr+occ+pending+inReg != n.depth {
					return fmt.Errorf("noc: credit leak at %v out %s vc %d: credits %d + occupancy %d + pending %d + reg %d != depth %d",
						rt.coord, d, vcIdx, cr, occ, pending, inReg, n.depth)
				}
			}
		}
		if bufFlits != rt.bufFlits || regCount != rt.regCount {
			return fmt.Errorf("noc: occupancy counters at %v: bufFlits %d (counted %d), regCount %d (counted %d)",
				rt.coord, rt.bufFlits, bufFlits, rt.regCount, regCount)
		}
		for li := range n.lanes {
			// The partition: laneOf names the one lane whose range holds the
			// node, and no other lane's run masks carry its bits.
			o, own := &n.lanes[li], li == int(n.laneOf[i])
			if (i >= o.lo && i < o.hi) != own {
				return fmt.Errorf("noc: laneOf puts node %d on lane %d, but lane %d covers [%d,%d)", i, n.laneOf[i], li, o.lo, o.hi)
			}
			if !own && (o.routers.has(i) || o.links.has(i) || o.queues.has(i)) {
				return fmt.Errorf("noc: lane %d holds a run-mask bit of node %d, which lane %d owns", li, i, n.laneOf[i])
			}
		}
		ln := n.laneAt(i)
		if ln.routers.has(i) != (bufFlits > 0) {
			return fmt.Errorf("noc: run mask routers at %v reads %t, recounted bufFlits %d", rt.coord, ln.routers.has(i), bufFlits)
		}
		if ln.links.has(i) != (regCount > 0) {
			return fmt.Errorf("noc: run mask links at %v reads %t, recounted regCount %d", rt.coord, ln.links.has(i), regCount)
		}
	}
	for i := range n.inj {
		q := &n.inj[i]
		count += q.flits
		switch scheduled := n.laneAt(i).queues.has(i); {
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
// anything: it names the first thing RC, VA or SA would act on — whose wake
// an idle router must therefore have missed — or returns "". Side-effect
// free.
func (n *Network) runnable(rt *router) string {
	for i := range rt.vcs {
		ivc := &rt.vcs[i]
		if ivc.buf.len() == 0 {
			continue
		}
		switch {
		case !ivc.routed:
			return fmt.Sprintf("input VC %d holds an unrouted head: the wake of a push into an empty VC was lost", i)
		case ivc.route == mesh.Local:
			return fmt.Sprintf("input VC %d is routed to the ejection port", i)
		case ivc.outVC == -1:
			op := &rt.out[ivc.route]
			for ovc := op.rng[ivc.cls].Lo; ovc < op.rng[ivc.cls].Hi; ovc++ {
				if op.owner[ovc] == noOwner {
					return fmt.Sprintf("input VC %d waits for an output VC on %s and VC %d is free", i, ivc.route, ovc)
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
