// The specification model: the router DESIGN.md §9 ("The specification
// model") describes, restated flit by flit against mesh, packet, routing and
// vc alone (of noc it names only the Sink type); spec_suite_test.go holds
// the kernel bit-identical to it. The model lives in the external test
// package, so it can call none of the kernel's code: a defect in a kernel
// helper cannot move the oracle with it. It has no run masks, no request
// masks, no sleeping routers and no in-place moves: every cycle it visits
// every node and every router, and whatever a router sends lands at the end
// of the cycle.
package noc_test

import (
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// specQueueFlits is an injection queue's capacity in flits.
const specQueueFlits = 16

// specFlit is a buffered flit and the cycle it entered the buffer.
type specFlit struct {
	f       packet.Flit
	arrived int64
}

// specVC is an input VC: a FIFO of at most depth flits, the output port of
// its front packet (computed when a head reaches the front) and the output
// VC that packet holds, -1 for none.
type specVC struct {
	fifo  []specFlit
	route mesh.Direction
	outVC int
}

// specOut is a link output port: per output VC its owner (input VC index
// p·V+v, or -1) and credits, and the last cycle a flit occupies the link.
type specOut struct {
	down    int // downstream router
	owner   []int
	credits []int
	busy    int64
}

type specRouter struct {
	coord   mesh.Coord
	in      []specVC // p·V+v
	out     [mesh.NumLinkDirs]specOut
	ranges  [mesh.NumPorts][packet.NumClasses]vc.Range // the assigner's, per output (Local: injection)
	vaPtr   [mesh.NumLinkDirs]int
	saPtr   [mesh.NumPorts]int
	saVCPtr [mesh.NumPorts]int
}

type specQueue struct {
	pkts    []*packet.Packet
	flits   int
	sent    int // flits of the front packet already in the router
	vc      int // local VC the front packet is entering
	refused bool
}

// specHop is a flit on a link, landing in input VC vc of port at node at the
// end of cycle at, or a credit for output VC vc of port at node.
type specHop struct {
	at   int64
	node int
	port mesh.Direction
	vc   int
	f    packet.Flit
}

// specNet is the model of one physical network.
type specNet struct {
	m                 mesh.Mesh
	alg               routing.Algorithm
	V, depth, injRate int
	pipe, period      int64
	cycle             int64
	routers           []specRouter
	queues            []specQueue
	sinks             []noc.Sink
	wakes             []func()
	ticks             []bool // shared by a dual's two subnets
	stage             func(int) bool
	links             [packet.NumClasses][]int64
	flits, credits    []specHop
}

func newSpecNet(cfg config.NoC, alg routing.Algorithm, asg vc.Assigner, pipe, period int, ticks []bool) *specNet {
	m := mesh.New(cfg.Width, cfg.Height)
	nn := m.NumNodes()
	s := &specNet{
		m: m, alg: alg, V: cfg.VCsPerPort, depth: cfg.VCDepth, injRate: cfg.InjectionFlitsPerCycle,
		pipe: int64(pipe), period: int64(period),
		routers: make([]specRouter, nn), queues: make([]specQueue, nn),
		sinks: make([]noc.Sink, nn), wakes: make([]func(), nn), ticks: ticks,
	}
	for c := range s.links {
		s.links[c] = make([]int64, m.NumLinkSlots())
	}
	for id := range s.routers {
		rt := &s.routers[id]
		rt.coord = m.Coord(mesh.NodeID(id))
		rt.in = make([]specVC, mesh.NumPorts*s.V)
		for i := range rt.in {
			rt.in[i].outVC = -1
		}
		for d := mesh.North; d < mesh.Local; d++ {
			if nb, ok := m.Neighbor(rt.coord, d); ok {
				op := &rt.out[d]
				op.down, op.busy = int(m.ID(nb)), -1
				op.owner, op.credits = make([]int, s.V), make([]int, s.V)
				for v := range op.owner {
					op.owner[v], op.credits[v] = -1, s.depth
				}
			}
		}
		for d := mesh.North; d <= mesh.Local; d++ {
			o := d.Orientation()
			if d == mesh.Local {
				o = mesh.LocalPort
			}
			for c := packet.Class(0); c < packet.NumClasses; c++ {
				rt.ranges[d][c] = asg.RangeFor(mesh.Link{From: mesh.NodeID(id), Dir: d}, o, c)
			}
		}
	}
	return s
}

func (s *specNet) Inject(p *packet.Packet) bool {
	q := &s.queues[p.Src]
	if q.flits+p.Flits > specQueueFlits {
		q.refused = true
		return false
	}
	q.pkts = append(q.pkts, p)
	q.flits += p.Flits
	return true
}

func (s *specNet) InjectSpace(node mesh.NodeID) int         { return specQueueFlits - s.queues[node].flits }
func (s *specNet) SetSink(node mesh.NodeID, k noc.Sink)     { s.sinks[node] = k }
func (s *specNet) SetInjectWake(node mesh.NodeID, w func()) { s.wakes[node] = w }
func (s *specNet) SetStage(fn func(int) bool)               { s.stage = fn }

// FlitsInFlight counts every flit queued, buffered or on a link.
func (s *specNet) FlitsInFlight() int {
	n := len(s.flits)
	for id := range s.routers {
		n += s.queues[id].flits
		for _, ivc := range s.routers[id].in {
			n += len(ivc.fifo)
		}
	}
	return n
}

// Step runs one cycle: the endpoint stage, injection, then VA and SA/ST for
// every router in ascending ID order, then what the routers sent lands.
func (s *specNet) Step() {
	if s.stage != nil {
		for node, on := range s.ticks {
			if on && !s.stage(node) {
				s.ticks[node] = false
			}
		}
	}
	for node := range s.queues {
		s.inject(node)
	}
	for id := range s.routers {
		s.allocateVCs(id)
		s.allocateSwitch(id)
	}
	kept := s.flits[:0]
	for _, h := range s.flits {
		if h.at > s.cycle {
			kept = append(kept, h)
			continue
		}
		s.push(h.node, int(h.port)*s.V+h.vc, h.f)
	}
	s.flits = kept
	for _, h := range s.credits {
		s.routers[h.node].out[h.port].credits[h.vc]++
	}
	s.credits = s.credits[:0]
	s.cycle++
}

// push buffers f in input VC i of router id; a head reaching the front is
// routed there (RC).
func (s *specNet) push(id, i int, f packet.Flit) {
	ivc := &s.routers[id].in[i]
	if len(ivc.fifo) == s.depth {
		panic(fmt.Sprintf("spec: input VC %d of router %d overflows", i, id))
	}
	ivc.fifo = append(ivc.fifo, specFlit{f, s.cycle})
	if len(ivc.fifo) == 1 && f.Head {
		s.routeFront(id, i)
	}
}

func (s *specNet) routeFront(id, i int) {
	ivc := &s.routers[id].in[i]
	p := ivc.fifo[0].f.Pkt
	ivc.route = s.alg.NextHop(s.routers[id].coord, s.m.Coord(mesh.NodeID(p.Dst)), p.Class())
}

// inject moves up to injRate flits of whole packets, in order, from the
// node's queue into its router's local VCs. A packet's head goes to the
// admissible local VC with the most free slots (the lowest of a tie) and is
// stamped InjectedAt; the rest of the packet follows into the same VC.
func (s *specNet) inject(node int) {
	q := &s.queues[node]
	rt := &s.routers[node]
	budget := s.injRate
	for budget > 0 && len(q.pkts) > 0 {
		p := q.pkts[0]
		if q.sent == 0 {
			r := rt.ranges[mesh.Local][p.Class()]
			q.vc = -1
			for v, most := r.Lo, 0; v < r.Hi; v++ {
				if free := s.depth - len(rt.in[int(mesh.Local)*s.V+v].fifo); free > most {
					q.vc, most = v, free
				}
			}
			if q.vc < 0 {
				break
			}
			p.InjectedAt = s.cycle
		}
		i := int(mesh.Local)*s.V + q.vc
		for budget > 0 && q.sent < p.Flits && len(rt.in[i].fifo) < s.depth {
			s.push(node, i, packet.Flit{Pkt: p, Seq: q.sent, Head: q.sent == 0, Tail: q.sent == p.Flits-1})
			q.sent++
			q.flits--
			budget--
		}
		if q.sent < p.Flits {
			break
		}
		q.pkts, q.sent = q.pkts[1:], 0
	}
	if budget < s.injRate && q.refused {
		q.refused = false
		s.ticks[node] = true
		if w := s.wakes[node]; w != nil {
			w()
		}
	}
}

// allocateVCs grants, per link output in direction order and per free
// output VC ascending, the VC to the first waiting input VC at or after the
// output's pointer, wrapping, whose class the VC admits on that link.
func (s *specNet) allocateVCs(id int) {
	rt := &s.routers[id]
	var waits [mesh.NumPorts]bool // some head routed to d holds no output VC
	for i := range rt.in {
		if ivc := &rt.in[i]; len(ivc.fifo) > 0 && ivc.fifo[0].f.Head && ivc.outVC == -1 {
			waits[ivc.route] = true
		}
	}
	for d := mesh.North; d < mesh.Local; d++ {
		op := &rt.out[d]
		if !waits[d] {
			continue
		}
		for ovc := 0; ovc < s.V; ovc++ {
			if op.owner[ovc] != -1 {
				continue
			}
			for k := range rt.in {
				i := (rt.vaPtr[d] + k) % len(rt.in)
				ivc := &rt.in[i]
				if len(ivc.fifo) == 0 || !ivc.fifo[0].f.Head || ivc.route != d || ivc.outVC != -1 ||
					!rt.ranges[d][ivc.fifo[0].f.Pkt.Class()].Contains(ovc) {
					continue
				}
				op.owner[ovc], ivc.outVC = i, ovc
				rt.vaPtr[d] = (i + 1) % len(rt.in)
				break
			}
		}
	}
}

// allocateSwitch grants each output, in direction order, at most one flit:
// input ports from the output's pointer, a port's VCs from the port's
// pointer. A candidate holds a flit past the pipeline gate whose packet
// ejects here or holds an output VC with a credit, on a free link; an input
// port that sent this cycle offers nothing more. A sink's refusal passes the
// grant on to the next candidate.
func (s *specNet) allocateSwitch(id int) {
	rt := &s.routers[id]
	var ready [64]bool // decided before the first grant
	var wanted [mesh.NumPorts]bool
	for i := range rt.in {
		ivc := &rt.in[i]
		ready[i] = len(ivc.fifo) > 0 &&
			(ivc.route == mesh.Local || ivc.outVC >= 0 && rt.out[ivc.route].credits[ivc.outVC] > 0)
		wanted[ivc.route] = wanted[ivc.route] || ready[i]
	}
	for d := mesh.North; d <= mesh.Local; d++ {
		if !wanted[d] || d == mesh.Local && s.sinks[id] == nil || d != mesh.Local && rt.out[d].busy >= s.cycle {
			continue
		}
	grant:
		for k := 0; k < mesh.NumPorts; k++ {
			p := (rt.saPtr[d] + k) % mesh.NumPorts
			for j := 0; j < s.V; j++ {
				v := (rt.saVCPtr[p] + j) % s.V
				i := p*s.V + v
				if !ready[i] || rt.in[i].route != d || s.cycle < rt.in[i].fifo[0].arrived+s.pipe || !s.traverse(id, i, d) {
					continue
				}
				for w := 0; w < s.V; w++ {
					ready[p*s.V+w] = false
				}
				rt.saPtr[d], rt.saVCPtr[p] = (p+1)%mesh.NumPorts, (v+1)%s.V
				break grant
			}
		}
	}
}

// traverse sends the front flit of input VC i through output d: to the
// sink, which may refuse it (a tail is stamped EjectedAt first), or onto
// the link, spending a credit. The freed slot's credit goes upstream.
func (s *specNet) traverse(id, i int, d mesh.Direction) bool {
	rt := &s.routers[id]
	ivc := &rt.in[i]
	f := ivc.fifo[0].f
	if d == mesh.Local {
		if f.Tail {
			f.Pkt.EjectedAt = s.cycle
		}
		if !s.sinks[id](f) {
			return false
		}
	}
	ivc.fifo = append(ivc.fifo[:0], ivc.fifo[1:]...)
	if p := mesh.Direction(i / s.V); p != mesh.Local {
		s.credits = append(s.credits, specHop{node: rt.out[p].down, port: p.Opposite(), vc: i % s.V})
	}
	if d == mesh.Local {
		if f.Tail {
			s.ticks[id] = true
		}
	} else {
		op := &rt.out[d]
		op.credits[ivc.outVC]--
		op.busy = s.cycle + s.period - 1
		s.links[f.Pkt.Class()][s.m.LinkIndex(mesh.Link{From: mesh.NodeID(id), Dir: d})]++
		s.flits = append(s.flits, specHop{at: op.busy, node: op.down, port: d.Opposite(), vc: ivc.outVC, f: f})
	}
	if f.Tail {
		if d != mesh.Local {
			rt.out[d].owner[ivc.outVC] = -1
		}
		ivc.outVC = -1
		if len(ivc.fifo) > 0 {
			s.routeFront(id, i)
		}
	}
	return true
}

// specDual is the model of two class-dedicated subnets: each has half the
// VCs (at least one), all shared by its one class; the request subnet steps
// first and runs the stage, and both wake one ticks set.
type specDual struct{ req, rep *specNet }

func newSpecDual(cfg config.NoC, alg routing.Algorithm, pipe, period int) *specDual {
	sub := cfg
	sub.VCsPerPort, sub.VCPolicy = max(1, cfg.VCsPerPort/2), config.VCShared
	pol := vc.MustNewPolicy(sub)
	ticks := specTicks(cfg)
	return &specDual{newSpecNet(sub, alg, pol, pipe, period, ticks), newSpecNet(sub, alg, pol, pipe, period, ticks)}
}

// specTicks is a network's first ticks set: every endpoint is ticked.
func specTicks(cfg config.NoC) []bool {
	ticks := make([]bool, cfg.Width*cfg.Height)
	for i := range ticks {
		ticks[i] = true
	}
	return ticks
}

func (d *specDual) subnet(c packet.Class) *specNet {
	if c == packet.Request {
		return d.req
	}
	return d.rep
}

func (d *specDual) Inject(p *packet.Packet) bool { return d.subnet(p.Class()).Inject(p) }
func (d *specDual) InjectSpace(node mesh.NodeID) int {
	return min(d.req.InjectSpace(node), d.rep.InjectSpace(node))
}
func (d *specDual) SetSink(node mesh.NodeID, k noc.Sink) {
	d.req.SetSink(node, k)
	d.rep.SetSink(node, k)
}
func (d *specDual) SetInjectWake(node mesh.NodeID, w func()) {
	d.req.SetInjectWake(node, w)
	d.rep.SetInjectWake(node, w)
}
func (d *specDual) SetStage(fn func(int) bool) { d.req.SetStage(fn) }
func (d *specDual) Step()                      { d.req.Step(); d.rep.Step() }
func (d *specDual) FlitsInFlight() int         { return d.req.FlitsInFlight() + d.rep.FlitsInFlight() }
