package noc

// The cycle kernel's schedule.
//
// A cycle runs the lane — the whole mesh's run masks and tallies — through
// its stages back to back (laneCycle), then the tail (finishCycle):
//
//	tick: the endpoint stage SetStage installed, on the ticks nodes (gpu: the
//	  SMs and MCs). A tick touches its own endpoint and, through Inject, its
//	  node's queue and the lane's tally and queues mask.
//	inject, then VA/SA/ST for the routers, ascending. A traversal into a
//	  router the walk has passed (a lower ID, one-cycle link) and a credit
//	  owed to one land there at once: that router sees them next cycle, as if
//	  the link or credit stage had delivered them. Ejection sinks and inject
//	  wakes run here.
//	link traversal, from the link registers the rest fill.
//	credits: a credit owed to a higher-ID router was filed on the lane's
//	  list (queueCredit) and lands here — the router phase is over, so the
//	  one-cycle credit loop holds.
//
// Which nodes a stage visits is read off five bit sets, the run masks, bit =
// node ID, each kept at the only sites that change what it says, so a stage
// is one ascending walk — the reference full scan minus no-ops:
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
// router the walk has passed (an in-place move or credit).

import (
	"math/bits"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/stats"
)

// nodeMask is a bit set over the mesh's nodes: bit = node ID.
type nodeMask []uint64

func (m nodeMask) set(i int)      { m[i>>6] |= 1 << (i & 63) }
func (m nodeMask) clear(i int)    { m[i>>6] &^= 1 << (i & 63) }
func (m nodeMask) has(i int) bool { return m[i>>6]>>(i&63)&1 != 0 }

// lane is the cycle kernel's schedule state: the run masks over every node
// and the accumulators a cycle writes before the tail folds them.
type lane struct {
	routers, links, queues, idle, ticks nodeMask // the run masks; see the header

	// credits lists the output ports owed credits this cycle
	// (outPort.pending) by routers that lie ahead of the walk; the lane lands
	// them after its router phase.
	credits []*outPort

	// stats is the lane's shard of order-sensitive accumulators
	// (injection/ejection counts, latency samplers); Network.Stats folds it.
	// Link flits are counted on the spine instead.
	stats *stats.Net

	// stalls tallies stall attributions by obs.StallCause since Reset; the
	// net.stall.* probes read it through.
	stalls [obs.NumStallCauses]int64

	moved bool // any flit moved this cycle

	// In-flight deltas since the last tail, which folds them into
	// Network.inFlight: flits Inject accepted and flits ejected.
	injectedFlits int
	ejectedFlits  int

	// Visit counters, read by tests through export_test.go so the gates and
	// the in-place paths cannot rot silently: idle routers walked past,
	// injectNode visits, Injects refused, stage calls, full router visits,
	// traversals moved in place and via a link register, credits landed in
	// place and deferred to the list.
	idleSkips, injectVisits, refusedInjects, stageCalls        int64
	routerVisits                                               int64
	movesInPlace, movesViaReg, creditsInPlace, creditsDeferred int64
}

// buildLane sizes the lane for the mesh.
func (n *Network) buildLane() {
	words := (n.numNodes + 63) / 64
	ln := &n.lane
	ln.stats = &stats.Net{Mesh: n.m}
	masks := make(nodeMask, 5*words)
	ln.routers, ln.links, ln.queues = masks[:words], masks[words:2*words], masks[2*words:3*words]
	ln.idle, ln.ticks = masks[3*words:4*words], masks[4*words:5*words]
	ln.credits = make([]*outPort, 0, mesh.NumLinkDirs*n.numNodes)
}

// resetLane empties the lane — run masks (ticks: fills), list, shard,
// tallies.
func (n *Network) resetLane() {
	ln := &n.lane
	clear(ln.routers)
	clear(ln.links)
	clear(ln.queues)
	clear(ln.idle)
	ln.credits = ln.credits[:0]
	ln.stats.Reset()
	ln.stats.Enabled = false
	ln.stalls = [obs.NumStallCauses]int64{}
	ln.moved, ln.injectedFlits, ln.ejectedFlits = false, 0, 0
	ln.idleSkips, ln.injectVisits, ln.refusedInjects, ln.stageCalls = 0, 0, 0, 0
	ln.routerVisits = 0
	ln.movesInPlace, ln.movesViaReg, ln.creditsInPlace, ln.creditsDeferred = 0, 0, 0, 0
	for id := 0; id < n.numNodes; id++ {
		ln.ticks.set(id)
	}
}

// tickPhase calls the stage for the ticks nodes, ascending, and drops a node
// whose call returns false until its next wake.
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

// injectPhase runs injectNode for the scheduled queues, ascending.
func (n *Network) injectPhase(ln *lane) {
	ln.moved = false
	for wi, w := range ln.queues {
		for base := wi << 6; w != 0; w &= w - 1 {
			ln.injectVisits++
			n.injectNode(ln, base+bits.TrailingZeros64(w))
		}
	}
}

// routerPhase runs VA/SA/ST for the routers holding flits, ascending; it
// follows injection, so a router this cycle's injected flits filled is
// visited, exactly as the reference scan would. Idle routers are
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
			ln.routerVisits++
			n.vcAllocate(rt)
			n.switchAllocateAndTraverse(ln, rt)
		}
	}
}

// linkPhaseLane delivers completed link traversals for the routers with an
// occupied link register, ascending.
func (n *Network) linkPhaseLane(ln *lane) {
	for wi, w := range ln.links {
		for base := wi << 6; w != 0; w &= w - 1 {
			n.linkPhase(ln, &n.routers[base+bits.TrailingZeros64(w)])
		}
	}
}

// laneCycle is the lane's whole cycle, the one schedule Step has; the
// header says where each stage's flits and credits land.
func (n *Network) laneCycle(ln *lane) {
	if n.stage != nil {
		n.tickPhase(ln)
	}
	n.injectPhase(ln)
	n.routerPhase(ln)
	n.linkPhaseLane(ln)
	n.applyCredits(&ln.credits)
}

// foldStats drains the lane's stats shard into the shared collector; Merge
// makes the fold exactly what direct accumulation would have produced.
func (n *Network) foldStats() {
	n.stats.Merge(n.lane.stats)
	n.lane.stats.Reset()
}
