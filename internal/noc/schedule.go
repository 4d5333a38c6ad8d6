package noc

// The cycle kernel's schedule.
//
// Step runs the network's stages back to back, then the tail (finishCycle):
//
//	tick: the endpoint stage SetStage installed, on the ticks nodes (gpu: the
//	  SMs and MCs). A tick touches its own endpoint and, through Inject, its
//	  node's queue, the in-flight count and the queues mask.
//	inject, then VA/SA/ST for the routers, ascending. A traversal into a
//	  router the walk has passed (a lower ID, one-cycle link) and a credit
//	  owed to one land there at once: that router sees them next cycle, as if
//	  the link or credit stage had delivered them. Ejection sinks and inject
//	  wakes run here.
//	link traversal, from the link registers the rest fill.
//	credits: a credit owed to a higher-ID router was filed on the network's
//	  list (queueCredit) and lands here — the router phase is over, so the
//	  one-cycle credit loop holds.
//
// Which nodes a stage visits is read off five bit sets, the run masks, bit =
// node ID, each kept at the only sites that change what it says, so a stage
// is one ascending walk — the reference full scan minus no-ops:
//
//	buffered bufFlits > 0. Set by enqueue on 0 → 1, cleared by traverse on
//	         → 0; walked by routerPhase.
//	links    regBusy ≠ 0. Set by traverse filling a register of a router
//	         with none busy, cleared by deliver emptying the last; walked by
//	         linkPhase.
//	queues   the injection queue is non-empty and not known to be blocked.
//	         Set by Inject into an empty queue and by traverse popping a
//	         Local VC of a node with queued packets, cleared by an injectNode
//	         visit that moved nothing or emptied the queue; walked by
//	         injectPhase.
//	idle     no switch candidate (router.go). Set by SA, cleared by enqueue
//	         into an empty VC (injection, in-place move, delivery) and the
//	         credit wake (in place or applied); masks buffered unless the
//	         run is observed.
//	ticks    the endpoint needs the next tick. Set by Reset, a sink taking a
//	         tail and the inject wake, cleared by a stage call returning
//	         false; walked by tickPhase. A Dual's subnets share one (NewDual).
//
// A walk reads each mask word once, and that is as good as a live read: a
// visit changes only its own bit of the mask being walked, or the bit of a
// router the walk has passed (an in-place move or credit).

import "math/bits"

// nodeMask is a bit set over the mesh's nodes: bit = node ID.
type nodeMask []uint64

func (m nodeMask) set(i int)      { m[i>>6] |= 1 << (i & 63) }
func (m nodeMask) clear(i int)    { m[i>>6] &^= 1 << (i & 63) }
func (m nodeMask) has(i int) bool { return m[i>>6]>>(i&63)&1 != 0 }

// tickPhase calls the stage for the ticks nodes, ascending, and drops a node
// whose call returns false until its next wake.
func (n *Network) tickPhase() {
	stage, ticks := n.stage, n.ticks
	for wi, w := range ticks {
		n.stageCalls += int64(bits.OnesCount64(w))
		for base := wi << 6; w != 0; w &= w - 1 {
			if id := base + bits.TrailingZeros64(w); !stage(id) {
				ticks.clear(id)
			}
		}
	}
}

// injectPhase runs injectNode for the scheduled queues, ascending.
func (n *Network) injectPhase() {
	n.moved = false
	for wi, w := range n.queues {
		for base := wi << 6; w != 0; w &= w - 1 {
			n.injectVisits++
			n.injectNode(base + bits.TrailingZeros64(w))
		}
	}
}

// routerPhase runs VA/SA/ST for the routers holding flits, ascending; it
// follows injection, so a router this cycle's injected flits filled is
// visited, exactly as the reference scan would. Idle routers are
// masked out a word at a time unless the run is observed: stall attribution
// is charged per cycle per stalled VC, so there an idle router still runs
// countStalls, exactly as its skipped visit would have, with no VC moved.
func (n *Network) routerPhase() {
	observed := n.tel != nil || n.spans != nil
	for wi, w := range n.buffered {
		idle := w & n.idle[wi]
		n.idleSkips += int64(bits.OnesCount64(idle))
		if !observed {
			w &^= idle
		}
		for base := wi << 6; w != 0; w &= w - 1 {
			i := bits.TrailingZeros64(w)
			rt := &n.routers[base+i]
			if idle>>i&1 != 0 {
				n.countStalls(rt, 0)
				continue
			}
			n.routerVisits++
			n.vcAllocate(rt)
			n.switchAllocateAndTraverse(rt)
		}
	}
}

// linkPhase delivers completed link traversals for the routers with an
// occupied link register, ascending.
func (n *Network) linkPhase() {
	for wi, w := range n.links {
		for base := wi << 6; w != 0; w &= w - 1 {
			n.deliverReady(&n.routers[base+bits.TrailingZeros64(w)])
		}
	}
}
