package core

import (
	"fmt"
	"slices"
	"strings"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/vc"
)

// This file mechanizes the paper's Section 3.2.1 safety argument a second,
// independent way: instead of the link-usage overlap test (CheckPolicy), it
// builds the channel dependency graph the configuration induces and proves it
// acyclic, or reports a concrete dependency cycle.
//
// Nodes are virtual channels of directed links. Edges capture the two ways a
// flit holding one channel can wait on another:
//
//   - routing edges: a packet occupying channel (l1, v1) waits for a credit
//     on some (l2, v2) where l2 is the next link of its route and v2 a VC its
//     class may acquire there, for every route of both classes;
//   - conversion edges: a memory controller consumes a request only while it
//     can enqueue the reply, so the terminal channels of each request route
//     into an MC wait on the initial channels of every reply route out of it.
//
// Cores consume replies unconditionally (the consumption assumption), so
// reply-terminal channels have no outgoing conversion edges and the graph is
// finite. Acyclicity of this graph is the standard sufficient condition for
// protocol-deadlock freedom; a cycle names the exact chain of channels that
// can deadlock.

// Channel is one virtual channel of a directed link: a node of the CDG.
type Channel struct {
	Link mesh.Link
	VC   int
}

// String formats the channel as "link[vcN]".
func (c Channel) String() string { return fmt.Sprintf("%s[vc%d]", c.Link, c.VC) }

// Edge-class bits: why one channel waits on another. A single edge may carry
// several bits when different routes induce the same dependency.
const (
	// EdgeRequest: consecutive links of a request route.
	EdgeRequest uint8 = 1 << iota
	// EdgeReply: consecutive links of a reply route.
	EdgeReply
	// EdgeConversion: request terminating at an MC waiting on the MC's
	// reply injection.
	EdgeConversion
)

// edgeClassString names an edge-class bit set, e.g. "req", "rep", "req+conv".
func edgeClassString(bits uint8) string {
	var parts []string
	if bits&EdgeRequest != 0 {
		parts = append(parts, "req")
	}
	if bits&EdgeReply != 0 {
		parts = append(parts, "rep")
	}
	if bits&EdgeConversion != 0 {
		parts = append(parts, "conv")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// CDG is the channel dependency graph induced by a mesh, placement, routing
// algorithm and VC assignment. Build one with LinkUsage.CDG.
type CDG struct {
	Mesh mesh.Mesh
	VCs  int

	// The graph is sparse — a channel waits on at most a few VCs of the
	// three or four links leaving its downstream router — so it is kept as
	// compressed rows: channel u's out-edges go to nbrs[start[u]:start[u+1]],
	// in ascending channel index, with their edge-class bits in cls.
	n     int // channel slots: Mesh.NumLinkSlots() * VCs
	start []int32
	nbrs  []int32
	cls   []uint8
}

// index maps a channel to its node index.
func (g *CDG) index(c Channel) int { return g.Mesh.LinkIndex(c.Link)*g.VCs + c.VC }

// channel is the inverse of index.
func (g *CDG) channel(i int) Channel { return Channel{Link: linkAt(i / g.VCs), VC: i % g.VCs} }

// linkAt is the inverse of mesh.LinkIndex.
func linkAt(li int) mesh.Link {
	return mesh.Link{From: mesh.NodeID(li / mesh.NumPorts), Dir: mesh.Direction(li % mesh.NumPorts)}
}

// EdgeClass returns the edge-class bits on the edge from -> to, 0 if absent.
func (g *CDG) EdgeClass(from, to Channel) uint8 {
	u := g.index(from)
	lo, hi := g.start[u], g.start[u+1]
	if i, ok := slices.BinarySearch(g.nbrs[lo:hi], int32(g.index(to))); ok {
		return g.cls[int(lo)+i]
	}
	return 0
}

// CDG builds the channel dependency graph the analyzed placement and routing
// induce under the VC assignment asg with vcs VCs per port — the
// graph-theoretic counterpart of CheckPolicy's link-overlap test. It walks
// the routes Analyze counted — every (core, MC) request route and (MC, core)
// reply route — and expands each hop over the VC ranges the assigner grants
// that class on each link.
//
// Every edge joins a link to one leaving that link's downstream router, so
// the walk first records, per (link, next direction), which edge classes
// join them: a route's consecutive links give EdgeRequest or EdgeReply, and
// each MC's distinct terminal request links, crossed with its distinct
// initial reply links, give EdgeConversion. Expanding those link pairs over
// VCs row by row then yields each channel's out-edges already in ascending
// order.
func (u *LinkUsage) CDG(asg vc.Assigner, vcs int) *CDG {
	if vcs < 1 {
		panic(fmt.Sprintf("core: CDG needs >= 1 VC per port, have %d", vcs))
	}
	m := u.Mesh
	ls := m.NumLinkSlots()
	n := ls * vcs
	g := &CDG{Mesh: m, VCs: vcs, n: n, start: make([]int32, n+1)}

	// turn[LinkIndex(l)*NumPorts+d] is the edge classes from link l to the
	// link leaving l's downstream router in direction d.
	turn := make([]uint8, ls*mesh.NumPorts)
	mark := func(from, to mesh.Link, bit uint8) {
		turn[m.LinkIndex(from)*mesh.NumPorts+int(to.Dir)] |= bit
	}
	appendNew := func(set []mesh.Link, l mesh.Link) []mesh.Link {
		if slices.Contains(set, l) {
			return set
		}
		return append(set, l)
	}
	// Terminal request links into each MC and initial reply links out of
	// it, over all cores, each kept once: at most one per side of the MC's
	// router.
	reqTerm := make([][]mesh.Link, len(u.Placement.MCs))
	repInit := make([][]mesh.Link, len(u.Placement.MCs))
	eachRoute(m, u.Placement, u.Algorithm, func(mc int, req, rep []mesh.Link) {
		for h := 0; h+1 < len(req); h++ {
			mark(req[h], req[h+1], EdgeRequest)
		}
		if len(req) > 0 {
			reqTerm[mc] = appendNew(reqTerm[mc], req[len(req)-1])
		}
		for h := 0; h+1 < len(rep); h++ {
			mark(rep[h], rep[h+1], EdgeReply)
		}
		if len(rep) > 0 {
			repInit[mc] = appendNew(repInit[mc], rep[0])
		}
	})
	for mc := range reqTerm {
		for _, t := range reqTerm[mc] {
			for _, s := range repInit[mc] {
				mark(t, s, EdgeConversion)
			}
		}
	}

	rangeOn := func(l mesh.Link, cls packet.Class) vc.Range {
		r := asg.RangeFor(l, l.Dir.Orientation(), cls)
		r.Lo, r.Hi = max(r.Lo, 0), min(r.Hi, vcs)
		return r
	}
	for li := 0; li < ls; li++ {
		l1 := linkAt(li)
		down, _ := m.Neighbor(m.Coord(l1.From), l1.Dir) // read only where a turn is marked
		from := [packet.NumClasses]vc.Range{rangeOn(l1, packet.Request), rangeOn(l1, packet.Reply)}
		for v1 := 0; v1 < vcs; v1++ {
			for d, bits := range turn[li*mesh.NumPorts : (li+1)*mesh.NumPorts] {
				if bits == 0 {
					continue
				}
				l2 := mesh.Link{From: m.ID(down), Dir: mesh.Direction(d)}
				to := [packet.NumClasses]vc.Range{rangeOn(l2, packet.Request), rangeOn(l2, packet.Reply)}
				base := int32(m.LinkIndex(l2) * vcs)
				for v2 := 0; v2 < vcs; v2++ {
					var c uint8
					if bits&EdgeRequest != 0 && from[packet.Request].Contains(v1) && to[packet.Request].Contains(v2) {
						c |= EdgeRequest
					}
					if bits&EdgeReply != 0 && from[packet.Reply].Contains(v1) && to[packet.Reply].Contains(v2) {
						c |= EdgeReply
					}
					if bits&EdgeConversion != 0 && from[packet.Request].Contains(v1) && to[packet.Reply].Contains(v2) {
						c |= EdgeConversion
					}
					if c != 0 {
						g.nbrs = append(g.nbrs, base+int32(v2))
						g.cls = append(g.cls, c)
					}
				}
			}
			g.start[li*vcs+v1+1] = int32(len(g.nbrs))
		}
	}
	return g
}

// FindCycle returns one dependency cycle as the ordered channel sequence
// c0 -> c1 -> ... -> ck -> c0 (the closing edge back to the first element is
// implied), or nil when the graph is acyclic. Detection is an iterative
// three-color DFS started from every node in index order, taking each
// node's out-edges in ascending order, so the reported cycle is a
// deterministic function of the configuration.
func (g *CDG) FindCycle() []Channel {
	const (
		white = 0 // unvisited
		gray  = 1 // on the DFS stack
		black = 2 // fully explored
	)
	color := make([]uint8, g.n)
	parent := make([]int32, g.n)
	for i := range parent {
		parent[i] = -1
	}
	type frame struct {
		node int
		next int32 // cursor into nbrs
	}
	var stack []frame
	for s := 0; s < g.n; s++ {
		if color[s] != white {
			continue
		}
		color[s] = gray
		stack = append(stack[:0], frame{node: s, next: g.start[s]})
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == g.start[f.node+1] {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			v := int(g.nbrs[f.next])
			f.next++
			switch color[v] {
			case white:
				color[v] = gray
				parent[v] = int32(f.node)
				stack = append(stack, frame{node: v, next: g.start[v]})
			case gray:
				// Back edge f.node -> v: the gray chain v .. f.node closes a
				// cycle. Walk parents back from f.node to v, then reverse.
				var cyc []Channel
				for u := f.node; ; u = int(parent[u]) {
					cyc = append(cyc, g.channel(u))
					if u == v {
						break
					}
				}
				slices.Reverse(cyc)
				return cyc
			}
		}
	}
	return nil
}

// CycleString renders a cycle with its edge classes, e.g.
// "12->E[vc0] =req=> 13->S[vc0] =conv=> 13->N[vc1] =rep=> 12->E[vc0]".
func (g *CDG) CycleString(cyc []Channel) string {
	if len(cyc) == 0 {
		return "<no cycle>"
	}
	var b strings.Builder
	for i, c := range cyc {
		if i > 0 {
			fmt.Fprintf(&b, " =%s=> ", edgeClassString(g.EdgeClass(cyc[i-1], c)))
		}
		b.WriteString(c.String())
	}
	fmt.Fprintf(&b, " =%s=> %s", edgeClassString(g.EdgeClass(cyc[len(cyc)-1], cyc[0])), cyc[0])
	return b.String()
}

// ProveDeadlockFree returns nil when the graph is acyclic — the sufficient
// condition for protocol-deadlock freedom — and otherwise an error carrying
// the offending channel chain.
func (g *CDG) ProveDeadlockFree() error {
	if cyc := g.FindCycle(); cyc != nil {
		return fmt.Errorf("core: channel dependency cycle (%d channels): %s", len(cyc), g.CycleString(cyc))
	}
	return nil
}
