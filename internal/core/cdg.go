package core

import (
	"fmt"
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

	n   int     // channel slots: Mesh.NumLinkSlots() * VCs
	adj []uint8 // n x n dense edge-class matrix, row = source channel
}

// index maps a channel to its dense node index.
func (g *CDG) index(c Channel) int { return g.Mesh.LinkIndex(c.Link)*g.VCs + c.VC }

// channel is the inverse of index.
func (g *CDG) channel(i int) Channel {
	li, v := i/g.VCs, i%g.VCs
	return Channel{
		Link: mesh.Link{From: mesh.NodeID(li / mesh.NumPorts), Dir: mesh.Direction(li % mesh.NumPorts)},
		VC:   v,
	}
}

// EdgeClass returns the edge-class bits on the edge from -> to, 0 if absent.
func (g *CDG) EdgeClass(from, to Channel) uint8 {
	return g.adj[g.index(from)*g.n+g.index(to)]
}

// CDG builds the channel dependency graph the analyzed placement and routing
// induce under the VC assignment asg with vcs VCs per port — the
// graph-theoretic counterpart of CheckPolicy's link-overlap test. It walks
// the routes Analyze counted — every (core, MC) request route and (MC, core)
// reply route — and expands each hop over the VC ranges the assigner grants
// that class on each link.
func (u *LinkUsage) CDG(asg vc.Assigner, vcs int) *CDG {
	if vcs < 1 {
		panic(fmt.Sprintf("core: CDG needs >= 1 VC per port, have %d", vcs))
	}
	m := u.Mesh
	n := m.NumLinkSlots() * vcs
	g := &CDG{Mesh: m, VCs: vcs, n: n, adj: make([]uint8, n*n)}

	clamp := func(r vc.Range) vc.Range {
		if r.Lo < 0 {
			r.Lo = 0
		}
		if r.Hi > vcs {
			r.Hi = vcs
		}
		return r
	}
	rangeOn := func(l mesh.Link, cls packet.Class) vc.Range {
		return clamp(asg.RangeFor(l, l.Dir.Orientation(), cls))
	}
	addEdges := func(from, to mesh.Link, fromCls, toCls packet.Class, bit uint8) {
		fr, tr := rangeOn(from, fromCls), rangeOn(to, toCls)
		fi, ti := m.LinkIndex(from)*vcs, m.LinkIndex(to)*vcs
		for v1 := fr.Lo; v1 < fr.Hi; v1++ {
			row := (fi + v1) * n
			for v2 := tr.Lo; v2 < tr.Hi; v2++ {
				g.adj[row+ti+v2] |= bit
			}
		}
	}

	// Terminal request links into each MC and initial reply links out of
	// it, over all cores; the conversion edges are their cross product.
	reqTerm := make([][]mesh.Link, len(u.Placement.MCs))
	repInit := make([][]mesh.Link, len(u.Placement.MCs))
	eachRoute(m, u.Placement, u.Algorithm, func(mc int, req, rep []mesh.Link) {
		for h := 0; h+1 < len(req); h++ {
			addEdges(req[h], req[h+1], packet.Request, packet.Request, EdgeRequest)
		}
		if len(req) > 0 {
			reqTerm[mc] = append(reqTerm[mc], req[len(req)-1])
		}
		for h := 0; h+1 < len(rep); h++ {
			addEdges(rep[h], rep[h+1], packet.Reply, packet.Reply, EdgeReply)
		}
		if len(rep) > 0 {
			repInit[mc] = append(repInit[mc], rep[0])
		}
	})
	for mc := range reqTerm {
		for _, t := range reqTerm[mc] {
			for _, s := range repInit[mc] {
				addEdges(t, s, packet.Request, packet.Reply, EdgeConversion)
			}
		}
	}
	return g
}

// FindCycle returns one dependency cycle as the ordered channel sequence
// c0 -> c1 -> ... -> ck -> c0 (the closing edge back to the first element is
// implied), or nil when the graph is acyclic. Detection is an iterative
// three-color DFS started from every node in index order, so the reported
// cycle is a deterministic function of the configuration.
func (g *CDG) FindCycle() []Channel {
	// Compress the dense matrix into CSR adjacency so the DFS touches only
	// real edges.
	offsets := make([]int32, g.n+1)
	nnz := 0
	for u := 0; u < g.n; u++ {
		row := u * g.n
		for v := 0; v < g.n; v++ {
			if g.adj[row+v] != 0 {
				nnz++
			}
		}
		offsets[u+1] = int32(nnz)
	}
	nbrs := make([]int32, 0, nnz)
	for u := 0; u < g.n; u++ {
		row := u * g.n
		for v := 0; v < g.n; v++ {
			if g.adj[row+v] != 0 {
				nbrs = append(nbrs, int32(v))
			}
		}
	}

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
	for s := 0; s < g.n; s++ {
		if color[s] != white {
			continue
		}
		color[s] = gray
		stack := []frame{{node: s, next: offsets[s]}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.next == offsets[f.node+1] {
				color[f.node] = black
				stack = stack[:len(stack)-1]
				continue
			}
			v := int(nbrs[f.next])
			f.next++
			switch color[v] {
			case white:
				color[v] = gray
				parent[v] = int32(f.node)
				stack = append(stack, frame{node: v, next: offsets[v]})
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
				for i, j := 0, len(cyc)-1; i < j; i, j = i+1, j-1 {
					cyc[i], cyc[j] = cyc[j], cyc[i]
				}
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
