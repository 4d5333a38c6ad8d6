package noc

// The deterministic parallel cycle kernel.
//
// The mesh is partitioned into contiguous row stripes ("lanes"); node IDs
// are row-major, so each lane owns a contiguous router-ID range and, via
// the router arena, a contiguous block of hot state. A cycle runs each lane
// whole, its stages back to back (laneCycle) — on the pool as one barrier
// generation, otherwise lane by lane on the stepping goroutine:
//
//	tick: the endpoint stage SetStage installed, on the lane's ticks nodes
//	  (gpu: the SMs and MCs there). A tick touches its own endpoint and,
//	  through Inject, its node's queue and its lane's tally and queues mask.
//	inject, then VA/SA/ST for the lane's routers, ascending. A traversal into
//	  a router the walk has passed (a lower ID in the lane, one-cycle link)
//	  and a credit owed to one land there at once: that router sees them
//	  next cycle, as if the link or credit stage had delivered them. Cross-lane
//	  writes are confined to single-writer slots — a boundary port's credit
//	  tally (op.pending/dirty, written only by the downstream router's lane)
//	  and the spine's per-link counters (only the upstream router's lane).
//	  Ejection sinks and inject wakes run here, on the lane owning the node.
//	link traversal, from the link registers the rest fill. Each router's
//	  input buffers receive pushes only from its owning lane; a delivery
//	  crossing a lane boundary waits in the outbox.
//	in-lane credits: a credit owed to a higher-ID router the lane owns was
//	  filed on the lane's own list (queueCredit) and lands here — the lane's
//	  router phase is over, so the one-cycle credit loop holds.
//
// No lane reads what another lane writes before the tail, so the stages need
// no barrier between them. The serial tail (finishCycle) merges the rest in
// lane order: outbox deliveries, boundary-port credits, latency replay, folds.
//
// Which nodes a stage visits is read off five bit sets per lane, the run
// masks, bit = node ID (a lane's masks span the mesh, so a cut moves bits and
// never resizes), each kept at the only sites that change what it says, so
// a stage is one ascending walk — the reference full scan minus no-ops:
//
//	routers  bufFlits > 0. Set by enqueue on 0 → 1, cleared by traverse on
//	         → 0; walked by routerPhase.
//	links    regBusy ≠ 0. Set by traverse filling a register of a router
//	         with none busy, cleared by deliver emptying the last; walked by
//	         linkPhaseLane.
//	queues   the injection queue is non-empty and not known to be blocked.
//	         Set by Inject into an empty queue and by traverse popping a
//	         Local VC of a node with queued packets, cleared by an injectNode
//	         visit that moved nothing or emptied the queue; walked by
//	         injectPhase.
//	idle     no switch candidate (router.go). Set by SA, cleared by enqueue
//	         into an empty VC (injection, in-place move, delivery) and the
//	         credit wake (in place or applied); masks routers unless the run
//	         is observed.
//	ticks    the endpoint needs the next tick. Set by Reset, a sink taking a
//	         tail and the inject wake, cleared by a stage call returning
//	         false; walked by tickPhase. A Dual's subnets share one (NewDual).
//
// A walk reads each mask word once, and that is as good as a live read: a
// visit changes only its own bit of the mask being walked, or the bit of a
// router the walk has passed (an in-place move or credit). Single writer: a
// lane's masks are written by that lane during its cycle — Inject, injection,
// traversal and in-lane deliveries act on nodes it owns — and by the serial
// section otherwise: cross-lane deliveries, and a cut.
//
// The stripes are cut by counted work (rebalance): equal at construction,
// then, whenever the caller asks (gpu.Simulator.Step: every power-of-two
// cycle from 256, the first cycles being a transient), a greedy prefix over
// each row's count since the last cut: full router visits plus the caller's
// awake endpoint ticks, both 100–200 ns of host time. Counts, never clocks,
// so the partition is reproducible. A cut runs in the serial section, moves
// laneOf and the run-mask bits of every node that changes hands, and
// allocates nothing. A Dual cuts both subnets at the same rows (see there).
//
// Determinism argument, in short: within a generation, lanes touch disjoint
// or single-writer state, so the interleaving cannot affect values;
// everything order-sensitive is deferred and merged in fixed lane order; and
// every statistics accumulator is integer-valued with commutative updates,
// so per-lane shards merge to the serial totals exactly. Partition boundaries
// therefore cannot affect results either: Workers=0, a cut that moves mid-run
// and one goroutine stepping several lanes are all safe to reproduce.
//
// Happens-before argument for the barrier (workerPool): a release is an
// atomic increment of gen (sync/atomic: sequentially consistent); workers
// spin (or park) until they load the new value, so every write the stepping
// goroutine made before it — the network and its stage, the previous tail, a
// cut, the caller's own cycle counter — is visible to every worker's
// generation. Symmetrically a worker's arrive() increments arrived and the
// coordinator waits in gather() until arrived == workers, so every write a
// worker made is visible to it and, via the next release, to every worker.
// The park paths preserve this (see release, await and awaitArrivals).

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
)

// nodeMask is a bit set over the mesh's nodes: bit = node ID.
type nodeMask []uint64

func (m nodeMask) set(i int)      { m[i>>6] |= 1 << (i & 63) }
func (m nodeMask) clear(i int)    { m[i>>6] &^= 1 << (i & 63) }
func (m nodeMask) has(i int) bool { return m[i>>6]>>(i&63)&1 != 0 }

// moveTo hands node i's bit, if set, over to dst.
func (m nodeMask) moveTo(dst nodeMask, i int) {
	if m.has(i) {
		m.clear(i)
		dst.set(i)
	}
}

// lane is one spatial domain of the cycle kernel: the routers and nodes
// with IDs in [lo, hi), their run masks, and every per-domain accumulator
// that would otherwise be shared across workers. A single lane spanning the
// whole mesh is the serial kernel.
type lane struct {
	lo, hi int // owned node-ID range [lo, hi)

	routers, links, queues, idle, ticks nodeMask // the run masks; see the header

	// Output ports owed credits by this lane's routers this cycle
	// (outPort.pending): creditLocal those of routers the lane owns, which
	// it applies itself; creditDirty those across a lane boundary, which the
	// serial tail drains.
	creditLocal, creditDirty []*outPort

	// outbox defers link deliveries that cross the lane boundary: each flit
	// sits in its port's link register until the serial tail commits it
	// downstream.
	outbox []*outPort

	// stats is the lane's private shard of order-sensitive accumulators
	// (injection/ejection counts, latency samplers); Network.Stats folds
	// shards in lane order. Link flits are counted on the spine instead.
	stats *stats.Net

	// stalls tallies stall attributions by obs.StallCause since Reset; the
	// net.stall.* probes read the sum over lanes, which no cut can change.
	// ejected defers per-packet latency observations to the serial tail,
	// which replays them into the shared histograms in lane order.
	stalls  [obs.NumStallCauses]int64
	ejected []*packet.Packet

	moved bool // any flit moved in this lane this cycle

	// In-flight deltas since the last serial tail, which folds them into
	// Network.inFlight: flits Inject accepted at this lane's nodes (written
	// by whichever goroutine runs the lane's endpoints) and flits ejected.
	injectedFlits int
	ejectedFlits  int

	// Visit counters, read by tests through export_test.go so the gates and
	// the in-place paths cannot rot silently: idle routers walked past,
	// injectNode visits, Injects refused at this lane's nodes, stage calls
	// (full router visits: router.visits), traversals moved in place and via
	// a link register, credits landed in place and deferred to a list.
	idleSkips, injectVisits, refusedInjects, stageCalls        int64
	movesInPlace, movesViaReg, creditsInPlace, creditsDeferred int64
}

// effectiveDomains resolves the Workers configuration to a lane count: 0
// means GOMAXPROCS — reproducible, since partition boundaries cannot affect
// results — and the count is clamped to the mesh height (row stripes).
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

// buildLanes partitions the mesh into equal row stripes. Every lane is
// non-empty and covers whole rows, so lane ID ranges are contiguous and
// ascending — before and after every cut.
func (n *Network) buildLanes(workers, width, height int) {
	d := effectiveDomains(workers, height)
	n.lanes = make([]lane, d)
	n.pool = newWorkerPool(d)
	n.laneOf = make([]int32, n.numNodes)
	n.rowWork, n.rowSeen = make([]int64, height), make([]int64, height)
	n.cut = make([]int, d+1)
	words := (n.numNodes + 63) / 64
	for i := range n.lanes {
		ln := &n.lanes[i]
		ln.stats = &stats.Net{Mesh: n.m}
		masks := make(nodeMask, (5*words+7)&^7) // whole cache lines of its own: lanes write their masks concurrently
		ln.routers, ln.links, ln.queues = masks[:words], masks[words:2*words], masks[2*words:3*words]
		ln.idle, ln.ticks = masks[3*words:4*words], masks[4*words:5*words]
		// A cut can grow this lane: size its lists for every port they can hold.
		ln.creditLocal = make([]*outPort, 0, mesh.NumLinkDirs*n.numNodes)
		ln.creditDirty = make([]*outPort, 0, 2*width)
		ln.outbox = make([]*outPort, 0, 2*width)
	}
}

// resetLanes empties every lane — run masks (ticks: fills), lists, shard,
// tallies — and cuts the mesh into equal row stripes, the cut a run starts from.
func (n *Network) resetLanes() {
	for i := range n.lanes {
		ln := &n.lanes[i]
		clear(ln.routers)
		clear(ln.links)
		clear(ln.queues)
		clear(ln.idle)
		ln.creditLocal, ln.creditDirty, ln.outbox = ln.creditLocal[:0], ln.creditDirty[:0], ln.outbox[:0]
		clear(ln.ejected)
		ln.ejected = ln.ejected[:0]
		ln.stats.Reset()
		ln.stats.Enabled = false
		ln.stalls = [obs.NumStallCauses]int64{}
		ln.moved, ln.injectedFlits, ln.ejectedFlits = false, 0, 0
		ln.idleSkips, ln.injectVisits, ln.refusedInjects, ln.stageCalls = 0, 0, 0, 0
		ln.movesInPlace, ln.movesViaReg, ln.creditsInPlace, ln.creditsDeferred = 0, 0, 0, 0
		n.cut[i+1] = (i + 1) * len(n.rowWork) / len(n.lanes)
	}
	for id, li := range n.laneOf {
		n.lanes[li].ticks.set(id)
	}
	clear(n.rowWork)
	clear(n.rowSeen)
	n.retile(n.cut)
}

// Rebalance re-cuts the row stripes; see Interconnect.Rebalance.
func (n *Network) Rebalance(endpointWork func(lo, hi int) int64) { n.rebalance(endpointWork, nil) }

// rebalance cuts n and, when non-nil, the peer subnet of a Dual at the same
// rows, from their summed counts since the last cut: lane i ends at the row
// whose running total comes closest to (i+1)/lanes of it, with ≥ 1 row each.
func (n *Network) rebalance(endpointWork func(lo, hi int) int64, peer *Network) {
	lanes, rows, w := len(n.lanes), len(n.rowWork), n.m.Width
	if lanes == 1 {
		return
	}
	var total int64
	for r := range n.rowWork {
		c := endpointWork(r*w, (r+1)*w)
		for id := r * w; id < (r+1)*w; id++ {
			c += n.routers[id].visits
			if peer != nil {
				c += peer.routers[id].visits
			}
		}
		n.rowWork[r], n.rowSeen[r] = c-n.rowSeen[r], c
		total += n.rowWork[r]
	}
	if total == 0 {
		return
	}
	r, acc := 0, int64(0)
	for li := range n.lanes {
		target, end := total*int64(li+1)/int64(lanes), rows-(lanes-1-li)
		for acc, r = acc+n.rowWork[r], r+1; r < end && acc+n.rowWork[r]-target <= target-acc; r++ {
			acc += n.rowWork[r]
		}
		n.cut[li+1] = r
	}
	n.retile(n.cut)
	if peer != nil {
		peer.retile(n.cut)
	}
}

// retile makes lane i own rows [cut[i], cut[i+1]), moving laneOf and the
// run-mask bits of every node that changes hands. Serial section only: there
// every per-lane list is empty and every tally folds the same from any lane.
func (n *Network) retile(cut []int) {
	copy(n.cut, cut)
	for li := range n.lanes {
		ln := &n.lanes[li]
		ln.lo, ln.hi = cut[li]*n.m.Width, cut[li+1]*n.m.Width
		for id := ln.lo; id < ln.hi; id++ {
			if old := &n.lanes[n.laneOf[id]]; old != ln {
				old.routers.moveTo(ln.routers, id)
				old.links.moveTo(ln.links, id)
				old.queues.moveTo(ln.queues, id)
				old.idle.moveTo(ln.idle, id)
				old.ticks.moveTo(ln.ticks, id)
				n.laneOf[id] = int32(li)
			}
		}
	}
}

// tickPhase calls the stage for the lane's ticks nodes, ascending, and drops
// a node whose call returns false until its next wake.
func (n *Network) tickPhase(ln *lane) {
	stage, ticks := n.stage, ln.ticks
	for wi, w := range ticks {
		ln.stageCalls += int64(bits.OnesCount64(w))
		for base := wi << 6; w != 0; w &= w - 1 {
			if id := base + bits.TrailingZeros64(w); !stage(id) {
				ticks.clear(id)
			}
		}
	}
}

// injectPhase runs injectNode for the lane's scheduled queues, ascending.
func (n *Network) injectPhase(ln *lane) {
	ln.moved = false
	for wi, w := range ln.queues {
		for base := wi << 6; w != 0; w &= w - 1 {
			ln.injectVisits++
			n.injectNode(ln, base+bits.TrailingZeros64(w))
		}
	}
}

// routerPhase runs VA/SA/ST for the lane's routers holding flits,
// ascending; it follows injection, so a router this cycle's injected flits
// filled is visited, exactly as the reference scan would. Idle routers are
// masked out a word at a time unless the run is observed: stall attribution
// is charged per cycle per stalled VC, so there an idle router still runs
// countStalls, exactly as its skipped visit would have, with no VC moved.
func (n *Network) routerPhase(ln *lane) {
	observed := n.tel != nil || n.spans != nil
	for wi, w := range ln.routers {
		idle := w & ln.idle[wi]
		ln.idleSkips += int64(bits.OnesCount64(idle))
		if !observed {
			w &^= idle
		}
		for base := wi << 6; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			rt := &n.routers[base+i]
			if idle>>i&1 != 0 {
				n.countStalls(ln, rt, 0)
				continue
			}
			rt.visits++
			n.vcAllocate(rt)
			n.switchAllocateAndTraverse(ln, rt)
		}
	}
}

// linkPhaseLane delivers completed link traversals for the lane's routers
// with an occupied link register, ascending.
func (n *Network) linkPhaseLane(ln *lane) {
	for wi, w := range ln.links {
		for base := wi << 6; w != 0; w &= w - 1 {
			n.linkPhase(ln, &n.routers[base+bits.TrailingZeros64(w)])
		}
	}
}

// laneCycle is one lane's whole cycle, the one schedule Step has: a barrier
// generation runs it for every lane, and so does the stepping goroutine, in
// lane order, when the pool is not used. The header says why no barrier
// separates its stages.
func (n *Network) laneCycle(ln *lane) {
	if n.stage != nil {
		n.tickPhase(ln)
	}
	n.injectPhase(ln)
	n.routerPhase(ln)
	n.linkPhaseLane(ln)
	n.applyCredits(&ln.creditLocal)
}

// foldStats drains every lane's stats shard into the shared collector in
// lane order; Merge makes the fold exactly what serial accumulation would
// have produced.
func (n *Network) foldStats() {
	for li := range n.lanes {
		n.stats.Merge(n.lanes[li].stats)
		n.lanes[li].stats.Reset()
	}
}

// Wait ladder for both sides of the barrier: rounds of pure atomic loads with
// one runtime.Gosched between rounds, then park on a condvar. Sized by
// measurement on mesh16_lanes when a cycle was three generations (tables in
// DESIGN.md §14); the waits it has to outlast — the serial span between two
// generations, the imbalance between lanes inside one — are shorter now.
//
//   - The budget before parking is ~100 µs. A budget a busy wait can outlast
//     parks a goroutine every cycle and doubles the cycle time; what is left
//     to park is a genuinely idle stepping goroutine (between two runs).
//   - The yield is sparse, one per ~1 µs of spinning: back to back, each is
//     a trip through findRunnable and wakep on the scheduler lock beside the
//     one thread doing useful work.
//   - The yield stays: with more runnable goroutines than Ps (parallel
//     tests, several -workers jobs in one process) the goroutine a spinner
//     waits for may not be running, and a spinner that never yields holds
//     its P for the whole budget (3.3x slower on the root equivalence suite).
const (
	spinLoads   = 2048 // pure atomic-load spins per round
	yieldRounds = 64   // rounds followed by a Gosched before parking
)

// workerPool is the lane executor: it runs one cycle of one network
// (laneCycle) across all lanes and returns when every lane is done. One pool
// serves a simulator's network, or both subnets of a Dual. It never runs more
// goroutines than there are Ps: min(lanes, GOMAXPROCS) in all (sampled once,
// at construction), the stepping goroutine included, each stepping a block
// of lanes. With one P (or one lane) workers is zero and Step runs the lanes
// on the stepping goroutine.
//
// A network cycle is one barrier generation: run publishes the network,
// bumps gen to release the workers, steps block 0 itself and gathers; the
// workers count into arrived to hand the cycle back. Both sides spin with a
// bounded budget before parking on a cond, so a barrier costs one atomic RMW
// per worker. See the package comment for the happens-before argument.
type workerPool struct {
	workers int  // goroutines beyond the stepping one
	running bool // goroutines spawned (lazily, by the first run) and not stopped

	net *Network // the open generation's network, written before the gen bump that publishes it

	gen     atomic.Uint64 // barrier generation, one per network cycle
	arrived atomic.Int64  // workers that finished the current generation

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

// spawn starts the worker goroutines if they are not running.
func (p *workerPool) spawn() {
	if p.running {
		return
	}
	p.running = true
	p.stopping.Store(false)
	next := p.gen.Load() + 1
	p.wg.Add(p.workers)
	for i := 1; i <= p.workers; i++ {
		// Scheduling order across lane goroutines cannot affect results:
		// lanes touch disjoint or single-writer state and every
		// cross-lane effect is merged in fixed lane order by finishCycle.
		go p.worker(i, next) //noclint:determinism lanes are race-free by ownership; all cross-lane effects merge in fixed lane order in finishCycle
	}
}

// run executes one cycle of network n on every lane.
func (p *workerPool) run(n *Network) {
	p.net = n
	p.release()
	p.runBlock(0)
	p.gather()
}

// runBlock steps goroutine g's contiguous share of the lanes through the
// open generation.
func (p *workerPool) runBlock(g int) {
	n, per := p.net, p.workers+1
	for li := g * len(n.lanes) / per; li < (g+1)*len(n.lanes)/per; li++ {
		n.laneCycle(&n.lanes[li])
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

// arrive counts this worker out of the current generation; the last one to
// arrive wakes a parked coordinator.
func (p *workerPool) arrive() {
	if p.arrived.Add(1) == int64(p.workers) && p.gatherParked.Load() != 0 {
		p.gmu.Lock()
		p.gcond.Broadcast()
		p.gmu.Unlock()
	}
}

// gather blocks until every worker has arrived — the same ladder as await,
// parking on gcond — then resets the count for the next one. The reset is
// safe without further synchronization: workers do not touch arrived again
// until after the next release.
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

// stop terminates the worker goroutines, if any are running. Must be called
// at a cycle boundary, when every worker is waiting for the next generation.
func (p *workerPool) stop() {
	if !p.running {
		return
	}
	p.stopping.Store(true)
	p.release()
	p.wg.Wait()
	p.running = false
}
