package noc

import (
	"fmt"
	"math/bits"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
)

// inputVC is one virtual channel at a router input port. The front packet's
// routing state lives here: wormhole switching routes per packet, and flits
// of at most one packet are in flight through the switch from a VC at a time.
type inputVC struct {
	buf     ring
	readyAt int64          // front flit's arrival + pipeline delay; meaningful while buf is non-empty
	routed  bool           // front packet's route computed: always, while buf is non-empty
	route   mesh.Direction // output port of the front packet
	cls     packet.Class   // front packet's class, cached at route compute
	outVC   int            // allocated downstream VC, -1 if none
}

const noOwner = -1

// outPort is a router output port: the downstream credit state per VC, the
// VC ownership table, and the single-flit link register feeding the
// downstream router (busy while its bit of the router's regBusy is set).
type outPort struct {
	rt       *router // the router this port belongs to
	exists   bool
	downNode mesh.NodeID    // downstream router
	downPort mesh.Direction // input port at the downstream router
	orient   mesh.Orientation

	credits []int                     // free downstream buffer slots per VC
	pending []int                     // credits returned this cycle, applied in the credit phase
	dirty   bool                      // on the lane's credit list, pending not yet applied
	owner   []int                     // per VC: owning input (port*V + vc) or noOwner
	elig    [packet.NumClasses]uint64 // per class: bit v set when the policy admits VC v on this link

	reg        packet.Flit // flit traversing the link
	regVC      int
	regReadyAt int64 // cycle the flit completes link traversal
}

// router is one 5-port VC router. The microarchitecture follows Section 2.2:
// two pipeline stages (RC+VA+SA, then ST) with lookahead-style single-cycle
// route computation, separable round-robin VC and switch allocation, and
// credit-based flow control. RC runs where a head becomes the front of its
// VC — a push into an empty VC, or a tail pop exposing the next packet — so
// every occupied VC's front is routed by the time a visit reads it.
//
// The allocators never scan input VCs. Each router keeps request masks — one
// word each, bit p·V+v for input VC (p, v) — that summarize the per-VC state
// and are updated at the few sites that change it (buffer push and pop, RC,
// the VA grant, credit decrement and return, tail release); VA, SA, the link
// phase and the stall attribution walk set bits with math/bits, so a router
// whose every VC is blocked costs a handful of mask tests. The masks, like
// the occupancy summaries (bufFlits and regBusy: the lane keeps a run-mask
// bit that says each is non-zero), are redundant: CheckInvariants
// recounts all of them from the per-VC state.
//
// A router whose visit ends with no switch candidate goes idle (the lane's
// idle bit): VA is at its fixpoint and nothing moved, so until a flit
// arrives in an empty VC or a credit returns to a VC it holds a visit would
// repeat itself, and the router phase skips it.
type router struct {
	id    mesh.NodeID
	coord mesh.Coord

	in  [mesh.NumPorts][]inputVC // per port; slices of vcs
	vcs []inputVC                // all input VCs, indexed p·V+v like the masks
	out [mesh.NumPorts]outPort

	bufFlits int                     // flits buffered across all input VCs
	regBusy  uint8                   // bit d: output d's link register holds a flit
	upstream [mesh.NumPorts]*outPort // output port feeding each input port (nil for Local)

	reqMasks

	// Round-robin pointers for fair, deterministic arbitration.
	vaPtr   [mesh.NumPorts]int // per output port, over input (port*V+vc)
	saVCPtr [mesh.NumPorts]int // per input port, over its VCs
	saPtr   [mesh.NumPorts]int // per output port, over input ports
}

// reqMasks are a router's request masks. Bit i of each mask but freeVC
// stands for input VC i = p·V+v, and is set when that VC ...; bit v of
// freeVC stands for output VC v, and is set when it ...
type reqMasks struct {
	occ    uint64                                      // holds at least one flit
	credOK uint64                                      // is routed to Local, or holds an output VC with a downstream credit
	want   [mesh.NumPorts]uint64                       // is routed to output d
	vaWait [mesh.NumLinkDirs][packet.NumClasses]uint64 // is routed to link output d, class c, and holds no output VC yet
	freeVC [mesh.NumLinkDirs]uint64                    // on link output d has no owner
}

// maxVCs is the largest VC count whose 5·V input VCs fit one mask word.
const maxVCs = 64 / mesh.NumPorts

// firstDiff names the first mask on which m and o disagree, with both
// values.
func (m *reqMasks) firstDiff(o *reqMasks) (name string, a, b uint64) {
	switch {
	case m.occ != o.occ:
		return "occ", m.occ, o.occ
	case m.credOK != o.credOK:
		return "credOK", m.credOK, o.credOK
	}
	for d := range m.want {
		if m.want[d] != o.want[d] {
			return fmt.Sprintf("want[%s]", mesh.Direction(d)), m.want[d], o.want[d]
		}
	}
	for d := range m.vaWait {
		for c := range m.vaWait[d] {
			if m.vaWait[d][c] != o.vaWait[d][c] {
				return fmt.Sprintf("vaWait[%s][%s]", mesh.Direction(d), packet.Class(c)), m.vaWait[d][c], o.vaWait[d][c]
			}
		}
	}
	for d := range m.freeVC {
		if m.freeVC[d] != o.freeVC[d] {
			return fmt.Sprintf("freeVC[%s]", mesh.Direction(d)), m.freeVC[d], o.freeVC[d]
		}
	}
	return "", 0, 0
}

// routerArena backs every router's per-VC state — input-VC descriptors,
// ring-buffer storage, credit/pending/owner tables — with a handful of
// contiguous allocations carved in router-ID order. Domains are contiguous
// ID ranges, so each worker's hot state is one dense block instead of
// thousands of individually allocated slices.
type routerArena struct {
	vcs   []inputVC
	flits []bufFlit
	ints  []int
}

func newRouterArena(nodes, vcs, depth int) *routerArena {
	return &routerArena{
		vcs:   make([]inputVC, nodes*mesh.NumPorts*vcs),
		flits: make([]bufFlit, nodes*mesh.NumPorts*vcs*depth),
		ints:  make([]int, nodes*mesh.NumLinkDirs*vcs*3),
	}
}

func (a *routerArena) takeVCs(k int) []inputVC {
	s := a.vcs[:k:k]
	a.vcs = a.vcs[k:]
	return s
}

func (a *routerArena) takeFlits(k int) []bufFlit {
	s := a.flits[:k:k]
	a.flits = a.flits[k:]
	return s
}

func (a *routerArena) takeInts(k int) []int {
	s := a.ints[:k:k]
	a.ints = a.ints[k:]
	return s
}

func (rt *router) init(id mesh.NodeID, m mesh.Mesh, vcs, depth int, ar *routerArena) {
	rt.id = id
	rt.coord = m.Coord(id)
	rt.vcs = ar.takeVCs(mesh.NumPorts * vcs)
	for i := range rt.vcs {
		rt.vcs[i] = inputVC{buf: newRingFrom(ar.takeFlits(depth))}
	}
	for p := 0; p < mesh.NumPorts; p++ {
		rt.in[p] = rt.vcs[p*vcs : (p+1)*vcs : (p+1)*vcs]
	}
	for d := mesh.North; d < mesh.Local; d++ {
		n, ok := m.Neighbor(rt.coord, d)
		if !ok {
			continue
		}
		op := &rt.out[d]
		op.rt = rt
		op.exists = true
		op.downNode = m.ID(n)
		op.downPort = d.Opposite()
		op.orient = d.Orientation()
		op.credits = ar.takeInts(vcs)
		op.pending = ar.takeInts(vcs)
		op.owner = ar.takeInts(vcs)
	}
	// The local output port ejects to the attached node; it has no VCs or
	// credits — the node's sink callback provides backpressure.
	rt.out[mesh.Local] = outPort{rt: rt, exists: true, downNode: id, downPort: mesh.Local, orient: mesh.LocalPort}
}

// reset empties the router — buffers, routes, link registers, request
// masks, arbitration pointers — and gives every output VC back its depth
// of credits and no owner: the state Network.Reset starts a run from.
func (rt *router) reset(depth int) {
	for i := range rt.vcs {
		rt.vcs[i] = inputVC{buf: newRingFrom(rt.vcs[i].buf.buf), outVC: -1}
	}
	rt.reqMasks = reqMasks{}
	for d := range rt.out {
		op := &rt.out[d]
		for v := range op.credits {
			op.credits[v], op.pending[v], op.owner[v] = depth, 0, noOwner
			rt.freeVC[d] |= 1 << v
		}
		op.dirty = false
		op.reg, op.regVC, op.regReadyAt = packet.Flit{}, 0, 0
	}
	rt.bufFlits, rt.regBusy = 0, 0
	rt.vaPtr, rt.saVCPtr, rt.saPtr = [mesh.NumPorts]int{}, [mesh.NumPorts]int{}, [mesh.NumPorts]int{}
}

// enqueue buffers f at input VC i of rt, which ln owns: the one push path,
// shared by injection, link delivery and the in-place move. A flit entering
// an empty buffer becomes the front, so it sets occ, stamps the pipeline
// gate, is routed if it is a head, and ends the router's idleness; the first
// flit in an empty router schedules it.
func (n *Network) enqueue(ln *lane, rt *router, i int, f packet.Flit) {
	ivc := &rt.vcs[i]
	ivc.buf.push(f, n.cycle)
	if ivc.buf.n == 1 {
		rt.occ |= 1 << i
		ivc.readyAt = n.cycle + n.pipeDelay
		ln.idle.clear(int(rt.id))
		if f.Head {
			n.routeFront(rt, i, f.Pkt)
		}
	}
	rt.bufFlits++
	if rt.bufFlits == 1 {
		ln.routers.set(int(rt.id))
	}
}

// routeFront runs RC for p, the packet whose head just became the front of
// input VC i.
func (n *Network) routeFront(rt *router, i int, p *packet.Packet) {
	ivc := &rt.vcs[i]
	cls := p.Class()
	if tab := n.routeTab[cls]; tab != nil {
		ivc.route = mesh.Direction(tab[int(rt.id)*n.numNodes+int(p.Dst)])
	} else {
		ivc.route = n.alg.NextHop(rt.coord, n.m.Coord(mesh.NodeID(p.Dst)), cls)
	}
	ivc.cls = cls
	ivc.routed = true
	bit := uint64(1) << i
	rt.want[ivc.route] |= bit
	if ivc.route == mesh.Local {
		rt.credOK |= bit // ejection needs no output VC; the sink has the final say
	} else {
		rt.vaWait[ivc.route][cls] |= bit
	}
}

// vcAllocate runs separable VC allocation: each free output VC, ascending,
// is granted to at most one requesting input VC whose class the VC admits,
// in round-robin order over inputs — the first requester at or after the
// output's pointer, wrapping. A requester granted this cycle has left
// vaWait, so it cannot win a second VC.
func (n *Network) vcAllocate(rt *router) {
	for d := mesh.North; d < mesh.Local; d++ {
		wait := &rt.vaWait[d]
		if wait[packet.Request]|wait[packet.Reply] == 0 {
			continue
		}
		op := &rt.out[d]
		for free := rt.freeVC[d]; free != 0; free &= free - 1 {
			ovc := bits.TrailingZeros64(free)
			var elig uint64
			if op.elig[packet.Request]>>ovc&1 != 0 {
				elig = wait[packet.Request]
			}
			if op.elig[packet.Reply]>>ovc&1 != 0 {
				elig |= wait[packet.Reply]
			}
			if elig == 0 {
				continue
			}
			idx := bits.TrailingZeros64(elig)
			if after := elig >> rt.vaPtr[d] << rt.vaPtr[d]; after != 0 {
				idx = bits.TrailingZeros64(after)
			}
			ivc := &rt.vcs[idx]
			front := &ivc.buf.front().flit
			if !front.Head {
				// routed with no output VC means the head has not left.
				panic("noc: VC allocation request from a VC with no head at its front")
			}
			op.owner[ovc] = idx
			rt.freeVC[d] &^= 1 << ovc
			ivc.outVC = ovc
			bit := uint64(1) << idx
			wait[ivc.cls] &^= bit
			if op.credits[ovc] > 0 {
				rt.credOK |= bit
			}
			if n.spans != nil && front.Pkt.Sampled {
				n.spans.VCGrant(front.Pkt, int(rt.id), int(op.downNode), ovc, n.cycle)
			}
			rt.vaPtr[d] = idx + 1
			if rt.vaPtr[d] == len(rt.vcs) {
				rt.vaPtr[d] = 0
			}
		}
	}
}

// switchAllocateAndTraverse runs SA and ST: each output port grants at most
// one flit per cycle, each input port sends at most one flit per cycle, and
// arbitration is round-robin over (input port, VC) pairs: outputs in port
// order, input ports from the output's pointer, a port's VCs from the port's
// pointer. A sink refusal (full MC queue) does not mask other candidates —
// the walk continues with the remaining VCs and ports, which is essential to
// avoid artificial wedging when an ejection-blocked packet shares a port
// with through traffic.
//
// The candidates for an output are the VCs that are sendable ignoring switch
// contention (which this walk resolves) and the pipeline delay (checked per
// candidate): a buffered flit routed there, holding an output VC with a
// downstream credit — or, for ejection, a present sink; the final say then
// belongs to the sink at traversal time. A traversal changes the masks only
// at the VC that moved, whose whole port is then out of the running, so one
// snapshot of occ & credOK serves every output. An empty snapshot puts the
// router to sleep (its idle bit; see router).
func (n *Network) switchAllocateAndTraverse(ln *lane, rt *router) {
	var moved uint64 // the VCs that sent a flit this cycle
	ready := rt.occ & rt.credOK
	if ready == 0 {
		ln.idle.set(int(rt.id)) // a router with a candidate is never idle
	} else {
		V := n.vcs
		vmask := uint64(1)<<V - 1
		for d := mesh.Direction(0); d < mesh.NumPorts; d++ {
			cand := rt.want[d] & ready
			if cand == 0 {
				continue
			}
			if d == mesh.Local {
				if n.sinks[rt.id] == nil {
					continue
				}
			} else if rt.regBusy>>d&1 != 0 {
				continue
			}
			// The input ports holding a candidate, rotated so bit 0 is the
			// port under the output's pointer.
			var ports uint
			for m := cand; m != 0; {
				p := int(n.portOf[bits.TrailingZeros64(m)])
				ports |= 1 << p
				m &^= vmask << (p * V)
			}
			pptr := rt.saPtr[d]
		grant:
			for rp := (ports>>pptr | ports<<(mesh.NumPorts-pptr)) & (1<<mesh.NumPorts - 1); rp != 0; rp &= rp - 1 {
				p := pptr + bits.TrailingZeros(rp)
				if p >= mesh.NumPorts {
					p -= mesh.NumPorts
				}
				slice := cand >> (p * V) & vmask
				// Rotate the port's slice so bit 0 is the VC under the
				// pointer; set bits then come up in round-robin order.
				ptr := rt.saVCPtr[p]
				for rot := (slice>>ptr | slice<<(V-ptr)) & vmask; rot != 0; rot &= rot - 1 {
					v := ptr + bits.TrailingZeros64(rot)
					if v >= V {
						v -= V
					}
					if n.cycle < rt.in[p][v].readyAt {
						continue // still in the first pipeline stage
					}
					if !n.traverse(ln, rt, p, v, d) {
						continue // sink refused this packet; try the next VC
					}
					ready &^= vmask << (p * V) // one flit per input port per cycle
					moved |= 1 << (p*V + v)
					rt.saPtr[d] = p + 1
					if rt.saPtr[d] == mesh.NumPorts {
						rt.saPtr[d] = 0
					}
					rt.saVCPtr[p] = v + 1
					if rt.saVCPtr[p] == V {
						rt.saVCPtr[p] = 0
					}
					break grant
				}
			}
		}
	}
	if n.tel != nil || n.spans != nil {
		n.countStalls(ln, rt, moved)
	}
}

// countStalls attributes, once per cycle per stalled input VC, why its front
// flit did not move: no output VC granted (VC allocation), an allocated VC
// with no downstream credits (credit), or a ready flit that lost the switch
// or found the link register occupied (route). Flits still inside the
// pipeline delay and ejection-blocked flits are not charged. The same
// attribution feeds the lane's stall tallies, which the net.stall.* probes
// read, and, for sampled packets, the per-packet span events;
// observability-only — runs after SA so "moved this cycle" is known
// exactly.
func (n *Network) countStalls(ln *lane, rt *router, moved uint64) {
	for m := rt.occ &^ rt.want[mesh.Local] &^ moved; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		ivc := &rt.vcs[i]
		if n.cycle < ivc.readyAt {
			continue // still in the first pipeline stage
		}
		var cause obs.StallCause
		switch {
		case rt.credOK>>i&1 != 0:
			cause = obs.StallRoute
		case ivc.outVC == -1:
			cause = obs.StallVCAlloc
		default:
			cause = obs.StallCredit
		}
		ln.stalls[cause]++
		if n.spans != nil {
			if pkt := ivc.buf.front().flit.Pkt; pkt.Sampled {
				n.spans.Stall(pkt, int(rt.id), cause, n.cycle)
			}
		}
	}
}

// traverse moves the front flit of input VC (p,v) through output d. It
// returns false when a sink refuses the flit (ejection only); nothing moves
// in that case.
//
// Where the flit goes: to the sink (Local); straight into the downstream
// buffer when the walk has already passed that router this cycle — a lower
// ID, on a one-cycle link — which first looks at it next cycle, exactly as
// if the link phase had delivered it; otherwise into the output's link
// register, which the link phase delivers.
func (n *Network) traverse(ln *lane, rt *router, p, v int, d mesh.Direction) bool {
	ivc := &rt.in[p][v]
	if d == mesh.Local {
		front := &ivc.buf.front().flit
		if front.Tail {
			// Stamp before the sink sees the tail: endpoints (the MC) read
			// EjectedAt inside the sink callback to capture the request
			// phase's timeline. A refusal leaves an early stamp behind,
			// which the successful retry overwrites.
			front.Pkt.EjectedAt = n.cycle
		}
		if !n.sinkAccept(rt.id, *front) {
			return false
		}
	}
	bf := ivc.buf.pop()
	f := bf.flit
	rt.bufFlits--
	if rt.bufFlits == 0 {
		ln.routers.clear(int(rt.id))
	}
	i := p*n.vcs + v
	bit := uint64(1) << i
	if ivc.buf.n == 0 {
		rt.occ &^= bit
	} else {
		ivc.readyAt = ivc.buf.frontArrived() + n.pipeDelay
	}

	// Return a credit upstream for the freed buffer slot. The injection port
	// has no credits — the injection queue reads the local VCs' space itself
	// — so there the pop schedules the node's queue, blocked or not, instead.
	if p != int(mesh.Local) {
		n.queueCredit(ln, rt, mesh.Direction(p), v)
	} else if !n.inj[rt.id].empty() {
		ln.queues.set(int(rt.id))
	}

	if d == mesh.Local {
		ln.ejectedFlits++
		n.spine.Ej[rt.id]++
		if f.Tail {
			ln.ticks.set(int(rt.id)) // the sink took a whole packet: its endpoint may wake
			ln.stats.CountEjection(f.Pkt)
			if n.tel != nil {
				n.tel.PacketEjected(f.Pkt, n.cycle)
			}
			if n.spans != nil && f.Pkt.Sampled {
				n.spans.Ejected(f.Pkt, n.cycle)
			}
		}
	} else {
		op := &rt.out[d]
		op.credits[ivc.outVC]--
		if op.credits[ivc.outVC] == 0 {
			rt.credOK &^= bit
		}
		n.spine.Link[f.Pkt.Class()][n.m.LinkIndex(mesh.Link{From: rt.id, Dir: d})]++
		if n.spans != nil && f.Head && f.Pkt.Sampled {
			n.spans.Hop(f.Pkt, int(rt.id), int(op.downNode), ivc.outVC, n.cycle)
		}
		if dn := int(op.downNode); dn < int(rt.id) && n.linkPeriod == 1 {
			n.enqueue(ln, &n.routers[dn], int(op.downPort)*n.vcs+ivc.outVC, f)
			ln.movesInPlace++
		} else {
			op.reg = f
			op.regVC = ivc.outVC
			op.regReadyAt = n.cycle + n.linkPeriod - 1
			if rt.regBusy == 0 {
				ln.links.set(int(rt.id))
			}
			rt.regBusy |= 1 << d
			ln.movesViaReg++
		}
	}

	if f.Tail {
		// Release the output VC and the per-packet routing state, and route
		// the next packet's head if the pop exposed one.
		rt.want[d] &^= bit
		rt.credOK &^= bit
		if d != mesh.Local {
			rt.out[d].owner[ivc.outVC] = noOwner
			rt.freeVC[d] |= 1 << ivc.outVC
		}
		ivc.routed = false
		ivc.outVC = -1
		if ivc.buf.n != 0 {
			n.routeFront(rt, i, ivc.buf.front().flit.Pkt)
		}
	}
	ln.moved = true
	return true
}
