package noc

// The deterministic parallel cycle kernel.
//
// The mesh is partitioned into contiguous row stripes ("lanes"); node IDs
// are row-major, so each lane owns a contiguous router-ID range and, via
// the router arena, a contiguous block of hot state. Every cycle runs in
// three phases:
//
//	phase A (parallel): per lane, injection then RC/VA/SA/ST for the
//	  lane's routers. Cross-lane interactions in this phase are confined
//	  to single-writer slots — the credit tally (op.pending, written only
//	  by the downstream router's lane) and per-link counters (written only
//	  by the upstream router's lane) — plus read-only shared state.
//	phase B (parallel, after a barrier): per lane, link traversal. Each
//	  router's input buffers receive pushes only from its owning lane;
//	  deliveries crossing a lane boundary are deferred to the lane's
//	  outbox.
//	serial tail: finishCycle merges all deferred cross-lane effects in
//	  lane order — outbox deliveries, credit drains, telemetry flushes,
//	  movement/in-flight folds — then compacts the active sets.
//
// Determinism argument, in short: within a phase, lanes touch disjoint or
// single-writer state, so the interleaving cannot affect values; everything
// that is order-sensitive is deferred and merged in fixed lane order; and
// every statistics accumulator is integer-valued with commutative updates
// (sums, min/max, histogram buckets), so per-lane sharding plus an ordered
// merge reproduces the serial totals exactly. Partition boundaries
// therefore cannot affect results either, which is what makes Workers=0
// (GOMAXPROCS-many lanes) safe to use in reproducible experiments.
//
// Happens-before argument for the barrier (workerPool): phase boundaries
// are generation-counter barriers built from sync/atomic operations, which
// the Go memory model gives sequentially consistent semantics. A release
// is an atomic increment of gen; workers spin (or park) until they load the
// new value, so every write the coordinator made before release() — the
// serial tail of the previous cycle — is visible to every worker's phase.
// Symmetrically, a worker's arrive() is an atomic
// increment of arrived, and the coordinator spins (or parks) in gather()
// until arrived == workers, so every write a worker made during its phase
// is visible to the coordinator (and, via the next release, to every other
// worker's next phase). The park paths preserve this: a worker publishes
// its intent with an atomic sleepers increment *before* re-checking gen
// under the mutex, and the releaser checks sleepers *after* bumping gen, so
// (by sequential consistency of the atomics) either the releaser sees the
// sleeper and broadcasts under the same mutex, or the parker's re-check
// sees the new gen and never blocks. The gather park path mirrors this
// with gatherParked/arrived.

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
)

// delivery is one deferred cross-domain link traversal: the flit sits in
// op's link register until the serial tail commits it downstream.
type delivery struct {
	rt *router
	op *outPort
}

// lane is one spatial domain of the cycle kernel: the routers and nodes
// with IDs in [lo, hi), their active sets, and every per-domain accumulator
// that would otherwise be shared across workers. A single lane spanning the
// whole mesh is the serial kernel.
type lane struct {
	lo, hi int // owned node-ID range [lo, hi)

	// Active sets: dense ID lists of this lane's routers with work and
	// nodes with queued injections. Sorted ascending at the top of the
	// router phase so iteration order matches the reference full scan;
	// compacted by the serial tail when the work drains.
	active    []int32
	injActive []int32

	// k and dense carry the router phase's iteration decision over to the
	// link phase: the sorted-prefix snapshot length, or a dense scan.
	k     int
	dense bool

	// creditDirty lists output ports with credits returned this cycle by
	// this lane's routers (accumulated in outPort.pending); the serial
	// tail drains lanes in order.
	creditDirty []*outPort

	// outbox defers link deliveries that cross the lane boundary.
	outbox []delivery

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

	moved        bool // any flit moved in this lane this cycle
	ejectedFlits int  // flits ejected this cycle (in-flight delta)
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
	// On a single P the worker pool cannot overlap phases; every barrier
	// crossing is a scheduler round-trip with no parallel work to show for
	// it. Step then runs the lanes inline in lane order, which is
	// bit-identical by partition independence. Sampled once here: the
	// answer cannot affect results, only which kernel produces them.
	n.poolOK = runtime.GOMAXPROCS(0) > 1
	n.lanes = make([]lane, d)
	n.laneOf = make([]int32, n.numNodes)
	for i := range n.lanes {
		ln := &n.lanes[i]
		ln.lo = (i * height / d) * width
		ln.hi = ((i + 1) * height / d) * width
		ln.stats = stats.NewNet(n.m)
		for id := ln.lo; id < ln.hi; id++ {
			n.laneOf[id] = int32(i)
		}
	}
}

// injectPhase drains injection queues for the lane's nodes, ascending.
// Sparse sets are sorted and walked directly; once a set covers a quarter
// of the lane, a full ascending scan through the same emptiness gate is
// cheaper than sorting, and visits the same nodes in the same order.
//
//noclint:hotpath root: per-cycle injection phase of the cycle kernel
func (n *Network) injectPhase(ln *lane) {
	ln.moved = false
	if len(ln.injActive)*4 >= ln.hi-ln.lo {
		for id := ln.lo; id < ln.hi; id++ {
			if !n.inj[id].empty() {
				n.injectNode(ln, id)
			}
		}
	} else {
		slices.Sort(ln.injActive)
		for _, id := range ln.injActive {
			n.injectNode(ln, int(id))
		}
	}
}

// routerPhase runs RC/VA/SA/ST for the lane's active routers, ascending.
// The sort happens after injection so routers woken by this cycle's
// injected flits are visited, exactly as the reference scan would.
//
//noclint:hotpath root: per-cycle router step (RC/VA/SA/ST)
func (n *Network) routerPhase(ln *lane) {
	ln.dense = len(ln.active)*4 >= ln.hi-ln.lo
	if ln.dense {
		// Dense: the gates (bufFlits, regCount) are live counters, so this
		// is the reference loop minus its no-op visits.
		for i := ln.lo; i < ln.hi; i++ {
			rt := &n.routers[i]
			if rt.bufFlits == 0 {
				continue
			}
			n.routeCompute(rt)
			n.vcAllocate(rt)
			n.switchAllocateAndTraverse(ln, rt)
		}
	} else {
		// Sparse: snapshot the sorted active prefix; wakes during the
		// phases append routers that, by construction, have no switch work
		// or link register to process this cycle.
		slices.Sort(ln.active)
		ln.k = len(ln.active)
		for i := 0; i < ln.k; i++ {
			rt := &n.routers[ln.active[i]]
			if rt.bufFlits == 0 {
				continue // only a link register in flight; nothing to arbitrate
			}
			n.routeCompute(rt)
			n.vcAllocate(rt)
			n.switchAllocateAndTraverse(ln, rt)
		}
	}
}

// linkPhaseLane delivers completed link traversals for the lane's routers,
// walking the same snapshot the router phase used.
//
//noclint:hotpath root: per-cycle link traversal phase
func (n *Network) linkPhaseLane(ln *lane) {
	if ln.dense {
		for i := ln.lo; i < ln.hi; i++ {
			rt := &n.routers[i]
			if rt.regCount > 0 {
				n.linkPhase(ln, rt)
			}
		}
	} else {
		for i := 0; i < ln.k; i++ {
			rt := &n.routers[ln.active[i]]
			if rt.regCount > 0 {
				n.linkPhase(ln, rt)
			}
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

// Spin budgets for the barrier's fast paths. The phases between barriers
// are a few microseconds of router work, so a released worker almost always
// shows up within the pure-load spin; the Gosched band covers scheduler
// jitter and oversubscribed machines; only a genuinely idle wait (e.g. the
// stepping goroutine off doing non-NoC work between cycles) parks.
const (
	spinLoads  = 128 // pure atomic-load spins before yielding
	spinYields = 256 // Gosched-interleaved spins before parking
)

// workerPool runs lanes 1..N-1 on persistent goroutines; lane 0 always runs
// on the stepping goroutine. Phase boundaries are generation-counter
// barriers: the coordinator bumps gen to release workers into a phase, and
// workers count into arrived to hand the phase back. Both sides spin with a
// bounded budget before parking on a cond, so a cycle's two barriers cost
// two atomic RMWs per worker instead of four channel operations. See the
// package comment for the happens-before argument.
type workerPool struct {
	workers int // worker goroutines (lanes beyond lane 0)

	gen     atomic.Uint64 // barrier generation; odd = phase A, even = phase B
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

func newWorkerPool(n *Network) *workerPool {
	w := len(n.lanes) - 1
	p := &workerPool{workers: w}
	p.cond = sync.NewCond(&p.mu)
	p.gcond = sync.NewCond(&p.gmu)
	p.wg.Add(w)
	for i := 0; i < w; i++ {
		// Scheduling order across lane goroutines cannot affect results:
		// phases touch disjoint or single-writer state and every
		// cross-lane effect is merged in fixed lane order by finishCycle.
		go p.worker(n, i+1) //noclint:determinism lanes are race-free by ownership; all cross-lane effects merge in fixed lane order in finishCycle
	}
	return p
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

// await blocks until generation g opens: a short pure-load spin, then a
// Gosched-interleaved spin, then park. The sleepers increment is published
// before the locked gen re-check, so a concurrent release either sees the
// sleeper or the re-check sees the new gen.
//
//noclint:hotpath root: per-cycle barrier wait on the worker side
func (p *workerPool) await(g uint64) {
	for i := 0; i < spinLoads; i++ {
		if p.gen.Load() >= g {
			return
		}
	}
	for i := 0; i < spinYields; i++ {
		if p.gen.Load() >= g {
			return
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

// gather blocks until every worker has arrived, then resets the count for
// the next phase. The reset is safe without further synchronization:
// workers do not touch arrived again until after the next release.
//
//noclint:hotpath root: per-cycle barrier wait on the coordinator side
func (p *workerPool) gather() {
	w := int64(p.workers)
	if p.arrived.Load() != w {
		spun := false
		for i := 0; i < spinLoads && !spun; i++ {
			spun = p.arrived.Load() == w
		}
		for i := 0; i < spinYields && !spun; i++ {
			spun = p.arrived.Load() == w
			runtime.Gosched()
		}
		if !spun {
			p.gmu.Lock()
			p.gatherParked.Add(1)
			for p.arrived.Load() != w {
				p.gcond.Wait()
			}
			p.gatherParked.Add(-1)
			p.gmu.Unlock()
		}
	}
	p.arrived.Store(0)
}

func (p *workerPool) worker(n *Network, li int) {
	defer p.wg.Done()
	ln := &n.lanes[li]
	var g uint64
	for {
		g++
		p.await(g) // phase A opens
		if p.stopping.Load() {
			return
		}
		n.phaseA(ln)
		p.arrive()
		g++
		p.await(g) // phase B opens
		n.linkPhaseLane(ln)
		p.arrive()
	}
}

// stop terminates the worker goroutines. Must be called at a cycle
// boundary, when every worker is waiting for the next phase-A release.
func (p *workerPool) stop() {
	p.stopping.Store(true)
	p.release()
	p.wg.Wait()
}

// stepParallel advances one cycle with the lanes on the worker pool:
// release phase A, run lane 0's share inline, gather; same for phase B;
// then the serial tail.
func (n *Network) stepParallel() {
	if n.pool == nil {
		n.pool = newWorkerPool(n)
		n.frec.Record(n.cycle, fleetobs.KindPool, int64(n.pool.workers), 0, 0)
	}
	p := n.pool
	p.release()
	n.phaseA(&n.lanes[0])
	p.gather()
	p.release()
	n.linkPhaseLane(&n.lanes[0])
	p.gather()
	n.finishCycle()
}
