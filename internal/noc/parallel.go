package noc

// The deterministic parallel cycle kernel.
//
// The mesh is partitioned into contiguous row stripes ("lanes"); node IDs
// are row-major, so each lane owns a contiguous router-ID range and, via
// the router arena, a contiguous block of hot state. Every simulated cycle
// runs in three parallel phases and a serial tail:
//
//	tick phase (parallel, RunLanes): per lane, the caller's callback over
//	  the lane's node range — the gpu layer ticks the SMs and MCs sitting
//	  on those nodes. A tick touches its own endpoint and, through Inject,
//	  its own node's injection queue, its lane's injected-flit tally and
//	  its lane's queues mask: all owned by the executing lane.
//	phase A (parallel): per lane, injection then RC/VA/SA/ST for the
//	  lane's routers. Cross-lane interactions in this phase are confined
//	  to single-writer slots — the credit tally (op.pending, written only
//	  by the downstream router's lane) and per-link counters (written only
//	  by the upstream router's lane) — plus read-only shared state.
//	  Ejection sinks run here, on the lane owning the ejecting node.
//	phase B (parallel, after a barrier): per lane, link traversal. Each
//	  router's input buffers receive pushes only from its owning lane;
//	  deliveries crossing a lane boundary are deferred to the lane's
//	  outbox.
//	serial tail: finishCycle merges all deferred cross-lane effects in
//	  lane order — outbox deliveries, credit drains, telemetry flushes,
//	  movement/in-flight folds.
//
// Which nodes a phase visits is one of three bit sets per lane, the run
// masks, bit id − lane.lo, each kept exact at the only sites that change
// what it says, so a phase is one ascending walk over set bits — the
// reference full scan minus its no-op visits:
//
//	routers  bufFlits > 0. Set by enqueue on 0 → 1, cleared by traverse on
//	         → 0; walked by routerPhase.
//	links    regCount > 0. Set by traverse on 0 → 1, cleared by deliver on
//	         → 0; walked by linkPhaseLane.
//	queues   the injection queue is non-empty and not known to be blocked.
//	         Set by Inject into an empty queue and by traverse popping a
//	         Local VC of a node with queued packets, cleared by an injectNode
//	         visit that moved nothing or emptied the queue; walked by
//	         injectPhase.
//
// A walk reads each mask word once, and that is as good as a live read: a
// visit changes only its own bit of the mask being walked. injectNode clears
// its own queues bit and sets a routers bit; a router visit clears its own
// routers bit and may set its own node's links and queues bits; a delivery
// clears its own links bit and sets downstream routers bits. Single writer:
// a lane's masks are written by that lane during the phases — Inject,
// injection, traversal and in-lane deliveries act on nodes it owns — and by
// the serial tail otherwise, where cross-lane deliveries enqueue.
//
// Determinism argument, in short: within a phase, lanes touch disjoint or
// single-writer state, so the interleaving cannot affect values; everything
// that is order-sensitive is deferred and merged in fixed lane order; and
// every statistics accumulator is integer-valued with commutative updates
// (sums, min/max, histogram buckets), so per-lane sharding plus an ordered
// merge reproduces the serial totals exactly. Partition boundaries
// therefore cannot affect results either, which is what makes Workers=0
// (GOMAXPROCS-many lanes) safe to use in reproducible experiments, and what
// lets one goroutine step several lanes when there are fewer Ps than lanes.
//
// Happens-before argument for the barrier (workerPool): every phase — tick,
// A, B alike — is one generation of the same barrier, built from sync/atomic
// operations, which the Go memory model gives sequentially consistent
// semantics. A release is an atomic increment of gen; workers spin (or park)
// until they load the new value, so every write the stepping goroutine made
// before release() — the work descriptor (net, ph), the serial tail of the
// previous cycle, and whatever the caller did between two phases (the gpu
// layer advances its cycle counter there) — is visible to every worker's
// phase. Symmetrically, a worker's arrive() is an atomic increment of
// arrived, and the coordinator spins (or parks) in gather() until arrived ==
// workers, so every write a worker made during its phase is visible to the
// coordinator (and, via the next release, to every other worker's next
// phase: what a tick queued is what phase A injects). The park paths
// preserve this: a worker publishes its intent with an atomic sleepers
// increment *before* re-checking gen under the mutex, and the releaser
// checks sleepers *after* bumping gen, so (by sequential consistency of the
// atomics) either the releaser sees the sleeper and broadcasts under the
// same mutex, or the parker's re-check sees the new gen and never blocks.
// The gather park path mirrors this with gatherParked/arrived.

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
)

// nodeMask is a bit set over one lane's nodes: bit id − lane.lo.
type nodeMask []uint64

func (m nodeMask) set(i int)      { m[i>>6] |= 1 << (i & 63) }
func (m nodeMask) clear(i int)    { m[i>>6] &^= 1 << (i & 63) }
func (m nodeMask) has(i int) bool { return m[i>>6]>>(i&63)&1 != 0 }

// lane is one spatial domain of the cycle kernel: the routers and nodes
// with IDs in [lo, hi), their run masks, and every per-domain accumulator
// that would otherwise be shared across workers. A single lane spanning the
// whole mesh is the serial kernel.
type lane struct {
	lo, hi int // owned node-ID range [lo, hi)

	routers, links, queues nodeMask // the run masks; see the header

	// creditDirty lists output ports with credits returned this cycle by
	// this lane's routers (accumulated in outPort.pending); the serial
	// tail drains lanes in order.
	creditDirty []*outPort

	// outbox defers link deliveries that cross the lane boundary: each flit
	// sits in its port's link register until the serial tail commits it
	// downstream.
	outbox []*outPort

	// stats is the lane's private shard of order-sensitive accumulators
	// (injection/ejection counts, latency samplers); Network.Stats folds
	// shards in lane order. Single-writer link-flit counters stay on the
	// shared collector.
	stats *stats.Net

	// Stall-attribution tallies and deferred per-packet latency
	// observations, flushed into the shared telemetry probes by the
	// serial tail.
	stallVCAlloc int64
	stallCredit  int64
	stallRoute   int64
	ejected      []*packet.Packet

	moved bool // any flit moved in this lane this cycle

	// In-flight deltas since the last serial tail, which folds them into
	// Network.inFlight: flits Inject accepted at this lane's nodes (written
	// by whichever goroutine runs the lane's endpoints) and flits ejected.
	injectedFlits int
	ejectedFlits  int

	// Visit counters, read by tests through export_test.go so the
	// back-pressure gates cannot rot silently: full router visits, idle
	// early-outs, injectNode visits, Injects refused at this lane's nodes.
	routerVisits, idleSkips, injectVisits, refusedInjects int64
}

// effectiveDomains resolves the Workers configuration to a lane count:
// 0 means GOMAXPROCS, and the count is clamped to the mesh height since
// domains are row stripes. Because partition boundaries cannot affect
// results (see the package comment above), a GOMAXPROCS-derived count is
// still reproducible.
func effectiveDomains(workers, height int) int {
	d := workers
	if d <= 0 {
		d = runtime.GOMAXPROCS(0)
	}
	if d > height {
		d = height
	}
	if d < 1 {
		d = 1
	}
	return d
}

// buildLanes partitions the mesh into row stripes. Every lane is non-empty
// (the domain count is clamped to the height) and covers whole rows, so
// lane ID ranges are contiguous and ascending.
func (n *Network) buildLanes(workers, width, height int) {
	d := effectiveDomains(workers, height)
	n.lanes = make([]lane, d)
	n.pool = newWorkerPool(d)
	n.laneOf = make([]int32, n.numNodes)
	for i := range n.lanes {
		ln := &n.lanes[i]
		ln.lo = (i * height / d) * width
		ln.hi = ((i + 1) * height / d) * width
		ln.stats = stats.NewNet(n.m)
		words := (ln.hi - ln.lo + 63) / 64
		masks := make(nodeMask, max(3*words, 8)) // a cache line of its own: lanes write their masks concurrently
		ln.routers, ln.links, ln.queues = masks[:words], masks[words:2*words], masks[2*words:3*words]
		for id := ln.lo; id < ln.hi; id++ {
			n.laneOf[id] = int32(i)
		}
	}
}

// injectPhase runs injectNode for the lane's scheduled queues, ascending.
//
//noclint:hotpath root: per-cycle injection phase of the cycle kernel
func (n *Network) injectPhase(ln *lane) {
	ln.moved = false
	for wi, w := range ln.queues {
		for base := ln.lo + wi<<6; w != 0; w &= w - 1 {
			ln.injectVisits++
			n.injectNode(ln, base+bits.TrailingZeros64(w))
		}
	}
}

// routerPhase runs RC/VA/SA/ST for the lane's routers holding flits,
// ascending; it follows injection, so a router this cycle's injected flits
// filled is visited, exactly as the reference scan would. An idle router
// keeps its bit: an observed run charges its stalls every cycle, so it must
// stay visited, only cheaply (idleVisit); out of the mask, every traced run
// would pay for full visits instead.
//
//noclint:hotpath root: per-cycle router step (RC/VA/SA/ST)
func (n *Network) routerPhase(ln *lane) {
	for wi, w := range ln.routers {
		for base := ln.lo + wi<<6; w != 0; w &= w - 1 {
			rt := &n.routers[base+bits.TrailingZeros64(w)]
			if rt.idle {
				n.idleVisit(ln, rt)
				continue
			}
			ln.routerVisits++
			n.routeCompute(rt)
			n.vcAllocate(rt)
			n.switchAllocateAndTraverse(ln, rt)
		}
	}
}

// idleVisit is all the router phase does for an idle router (see
// router.idle); small enough to inline, so the early-out stays a load and a
// branch in the loop. An observed run keeps its numbers: stall attribution
// is charged per cycle per stalled VC, so it still runs — exactly as the
// skipped visit would have run it, with no VC having moved.
func (n *Network) idleVisit(ln *lane, rt *router) {
	ln.idleSkips++
	if n.tel != nil || n.spans != nil {
		n.countStalls(ln, rt, 0)
	}
}

// linkPhaseLane delivers completed link traversals for the lane's routers
// with an occupied link register, ascending.
//
//noclint:hotpath root: per-cycle link traversal phase
func (n *Network) linkPhaseLane(ln *lane) {
	for wi, w := range ln.links {
		for base := ln.lo + wi<<6; w != 0; w &= w - 1 {
			n.linkPhase(ln, &n.routers[base+bits.TrailingZeros64(w)])
		}
	}
}

// phaseA is a worker's compute phase: injection then router pipelines for
// one lane.
func (n *Network) phaseA(ln *lane) {
	n.injectPhase(ln)
	n.routerPhase(ln)
}

// foldStats drains every lane's stats shard into the shared collector in
// lane order. All sampler updates are integer sums, mins, maxes, and bucket
// counts, so the fold reproduces exactly what serial accumulation would
// have produced.
func (n *Network) foldStats() {
	for li := range n.lanes {
		src := n.lanes[li].stats
		for t := 0; t < packet.NumTypes; t++ {
			n.stats.InjectedPackets[t] += src.InjectedPackets[t]
			n.stats.InjectedFlits[t] += src.InjectedFlits[t]
			n.stats.EjectedPackets[t] += src.EjectedPackets[t]
			n.stats.EjectedFlits[t] += src.EjectedFlits[t]
			src.InjectedPackets[t] = 0
			src.InjectedFlits[t] = 0
			src.EjectedPackets[t] = 0
			src.EjectedFlits[t] = 0
		}
		for c := 0; c < packet.NumClasses; c++ {
			n.stats.TotalLatency[c].Merge(&src.TotalLatency[c])
			n.stats.NetLatency[c].Merge(&src.NetLatency[c])
			src.TotalLatency[c] = stats.Sampler{}
			src.NetLatency[c] = stats.Sampler{}
		}
	}
}

// Wait ladder for both sides of the barrier: rounds of pure atomic loads with
// one runtime.Gosched between rounds, then park on a condvar. Sized by
// measurement on mesh16_lanes (16x16 mesh, two lanes, 2 vCPUs; the tables
// are in DESIGN.md §14), where a load costs ~0.5 ns and the waits a busy
// simulation produces are the serial span between two generations
// (finishCycle plus Simulator.Step's epilogue, ~4 µs) and the imbalance
// between lanes inside one (the lighter lane waits ~20 µs for the MC rows'
// router phase).
//
//   - The budget before parking is ~100 µs. A budget a busy wait can outlast
//     (2^15 loads and below) parks a goroutine every cycle and doubles the
//     cycle time; what is left to park is a genuinely idle stepping
//     goroutine — result assembly, the gap between two runs.
//   - The yield is sparse, one per ~1 µs of spinning. Back to back — the
//     ladder this replaces was 128 loads, then 256 x (load, Gosched) — every
//     yield with nothing else runnable is a trip through findRunnable and
//     wakep on the scheduler lock beside the one thread doing useful work:
//     28% of all samples with serial ticks, still ~1.5x the cycle time
//     with the ticks on the lanes.
//   - The yield stays: with more runnable goroutines than Ps (parallel
//     tests, several -workers jobs in one process) the goroutine a spinner
//     waits for may not be running, and a spinner that never yields holds
//     its P for the whole budget. Spin-then-park is within the noise of
//     this ladder on mesh16_lanes and 3.3x slower on the root equivalence
//     suite.
const (
	spinLoads   = 2048 // pure atomic-load spins per round
	yieldRounds = 64   // rounds followed by a Gosched before parking
)

// phase selects what every lane does in one barrier generation.
type phase uint8

const (
	phaseCall   phase = iota // RunLanes' callback over the lane's node range
	phaseRouter              // injection, then RC/VA/SA/ST (phaseA)
	phaseLink                // link traversal (linkPhaseLane)
)

// workerPool is the lane executor: it runs one phase of one network across
// all lanes and returns when every lane is done. One pool serves everything
// a simulator steps — RunLanes' endpoint ticks and the router and link
// phases of its network, or of both subnets of a Dual, which share the mesh
// and Workers and hence the row stripes. It never runs more goroutines than
// there are Ps: min(lanes, GOMAXPROCS) in all, the stepping goroutine
// included, each stepping a contiguous block of lanes. GOMAXPROCS is sampled
// once, at construction; by partition independence the answer cannot affect
// results, only which goroutine produces them. With a single P (or a single
// lane) workers is zero and callers step the lanes inline.
//
// A phase is one barrier generation: run publishes the work (net, ph),
// bumps gen to release the workers, steps block 0 itself and gathers; the
// workers count into arrived to hand the phase back. Both sides spin with a
// bounded budget before parking on a cond, so a barrier costs one atomic RMW
// per worker. See the package comment for the happens-before argument.
type workerPool struct {
	workers int  // goroutines beyond the stepping one
	running bool // goroutines spawned (lazily, by the first run) and not stopped

	// The open generation's work, written by the stepping goroutine before
	// the gen bump that publishes it.
	net *Network
	ph  phase

	gen     atomic.Uint64 // barrier generation, one per phase run
	arrived atomic.Int64  // workers that finished the current phase

	// Worker park path: a worker that exhausts its spin budget registers
	// in sleepers, then re-checks gen under mu before waiting on cond.
	sleepers atomic.Int64
	mu       sync.Mutex
	cond     *sync.Cond

	// Coordinator park path, mirroring the worker one for gather().
	gatherParked atomic.Int64
	gmu          sync.Mutex
	gcond        *sync.Cond

	stopping atomic.Bool
	wg       sync.WaitGroup
}

func newWorkerPool(lanes int) *workerPool {
	p := &workerPool{workers: min(lanes, runtime.GOMAXPROCS(0)) - 1}
	p.cond = sync.NewCond(&p.mu)
	p.gcond = sync.NewCond(&p.gmu)
	return p
}

// spawn starts the worker goroutines if they are not running and reports
// whether it did.
func (p *workerPool) spawn() bool {
	if p.running {
		return false
	}
	p.running = true
	p.stopping.Store(false)
	next := p.gen.Load() + 1
	p.wg.Add(p.workers)
	for i := 1; i <= p.workers; i++ {
		// Scheduling order across lane goroutines cannot affect results:
		// phases touch disjoint or single-writer state and every
		// cross-lane effect is merged in fixed lane order by finishCycle.
		go p.worker(i, next) //noclint:determinism lanes are race-free by ownership; all cross-lane effects merge in fixed lane order in finishCycle
	}
	return true
}

// run executes phase ph of network n on every lane.
func (p *workerPool) run(n *Network, ph phase) {
	p.net, p.ph = n, ph
	p.release()
	p.runBlock(0)
	p.gather()
}

// runBlock steps goroutine g's contiguous share of the lanes through the
// open generation's phase.
func (p *workerPool) runBlock(g int) {
	n, per := p.net, p.workers+1
	for li := g * len(n.lanes) / per; li < (g+1)*len(n.lanes)/per; li++ {
		ln := &n.lanes[li]
		switch p.ph {
		case phaseCall:
			n.laneCall(ln)
		case phaseRouter:
			n.phaseA(ln)
		case phaseLink:
			n.linkPhaseLane(ln)
		}
	}
}

// release opens the next barrier generation, admitting every worker waiting
// in await. The sleepers check runs after the gen bump (sequentially
// consistent atomics), pairing with await's park path.
func (p *workerPool) release() {
	p.gen.Add(1)
	if p.sleepers.Load() != 0 {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	}
}

// await blocks until generation g opens: the spin ladder, then park. The
// sleepers increment is published before the locked gen re-check, so a
// concurrent release either sees the sleeper or the re-check sees the new
// gen.
//
//noclint:hotpath root: per-phase barrier wait on the worker side
func (p *workerPool) await(g uint64) {
	for r := 0; ; r++ {
		for i := 0; i < spinLoads; i++ {
			if p.gen.Load() >= g {
				return
			}
		}
		if r == yieldRounds {
			break
		}
		runtime.Gosched()
	}
	p.mu.Lock()
	p.sleepers.Add(1)
	for p.gen.Load() < g {
		p.cond.Wait()
	}
	p.sleepers.Add(-1)
	p.mu.Unlock()
}

// arrive counts this worker out of the current phase; the last one to
// arrive wakes a parked coordinator.
func (p *workerPool) arrive() {
	if p.arrived.Add(1) == int64(p.workers) && p.gatherParked.Load() != 0 {
		p.gmu.Lock()
		p.gcond.Broadcast()
		p.gmu.Unlock()
	}
}

// gather blocks until every worker has arrived — the same ladder as await,
// parking on gcond — then resets the count for the next phase. The reset is
// safe without further synchronization: workers do not touch arrived again
// until after the next release.
//
//noclint:hotpath root: per-phase barrier wait on the coordinator side
func (p *workerPool) gather() {
	p.awaitArrivals()
	p.arrived.Store(0)
}

func (p *workerPool) awaitArrivals() {
	w := int64(p.workers)
	for r := 0; ; r++ {
		for i := 0; i < spinLoads; i++ {
			if p.arrived.Load() == w {
				return
			}
		}
		if r == yieldRounds {
			break
		}
		runtime.Gosched()
	}
	p.gmu.Lock()
	p.gatherParked.Add(1)
	for p.arrived.Load() != w {
		p.gcond.Wait()
	}
	p.gatherParked.Add(-1)
	p.gmu.Unlock()
}

// worker is goroutine g's loop: one block of lanes per generation, starting
// at generation next.
func (p *workerPool) worker(g int, next uint64) {
	defer p.wg.Done()
	for ; ; next++ {
		p.await(next)
		if p.stopping.Load() {
			return
		}
		p.runBlock(g)
		p.arrive()
	}
}

// stop terminates the worker goroutines and reports whether any were
// running. Must be called at a cycle boundary, when every worker is waiting
// for the next generation.
func (p *workerPool) stop() bool {
	if !p.running {
		return false
	}
	p.stopping.Store(true)
	p.release()
	p.wg.Wait()
	p.running = false
	return true
}
