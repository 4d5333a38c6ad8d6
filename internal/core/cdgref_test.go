package core_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// refCDG is the reference the sparse prover is held to: the channel
// dependency graph as a dense n x n edge-class matrix, filled hop by hop
// from routing.AppendPath's routes, with the conversion edges as the full
// cross product of every core's terminal request link and initial reply
// link at each MC, duplicates and all. It shares no code with core.CDG beyond the
// exported types.
type refCDG struct {
	m   mesh.Mesh
	vcs int
	n   int
	adj []uint8 // row = source channel
}

func newRefCDG(u *core.LinkUsage, asg vc.Assigner, vcs int) *refCDG {
	m := u.Mesh
	n := m.NumLinkSlots() * vcs
	g := &refCDG{m: m, vcs: vcs, n: n, adj: make([]uint8, n*n)}
	rangeOn := func(l mesh.Link, cls packet.Class) vc.Range {
		r := asg.RangeFor(l, l.Dir.Orientation(), cls)
		if r.Lo < 0 {
			r.Lo = 0
		}
		if r.Hi > vcs {
			r.Hi = vcs
		}
		return r
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
	pl, alg := u.Placement, u.Algorithm
	for i := range pl.MCs {
		mcID := pl.MCNode(i)
		var reqTerm, repInit []mesh.Link
		for _, coreID := range pl.Cores() {
			req := routing.AppendPath(nil, m, alg, coreID, mcID, packet.Request)
			for h := 0; h+1 < len(req); h++ {
				addEdges(req[h], req[h+1], packet.Request, packet.Request, core.EdgeRequest)
			}
			if len(req) > 0 {
				reqTerm = append(reqTerm, req[len(req)-1])
			}
			rep := routing.AppendPath(nil, m, alg, mcID, coreID, packet.Reply)
			for h := 0; h+1 < len(rep); h++ {
				addEdges(rep[h], rep[h+1], packet.Reply, packet.Reply, core.EdgeReply)
			}
			if len(rep) > 0 {
				repInit = append(repInit, rep[0])
			}
		}
		for _, t := range reqTerm {
			for _, s := range repInit {
				addEdges(t, s, packet.Request, packet.Reply, core.EdgeConversion)
			}
		}
	}
	return g
}

func (g *refCDG) index(c core.Channel) int { return g.m.LinkIndex(c.Link)*g.vcs + c.VC }

func (g *refCDG) channel(i int) core.Channel {
	li := i / g.vcs
	return core.Channel{
		Link: mesh.Link{From: mesh.NodeID(li / mesh.NumPorts), Dir: mesh.Direction(li % mesh.NumPorts)},
		VC:   i % g.vcs,
	}
}

func (g *refCDG) edgeClass(from, to core.Channel) uint8 { return g.adj[g.index(from)*g.n+g.index(to)] }

// findCycle is the three-color DFS from every node in index order, each
// row's edges taken in ascending column order, read straight off the matrix.
func (g *refCDG) findCycle() []core.Channel {
	color := make([]uint8, g.n) // 0 white, 1 gray, 2 black
	parent := make([]int, g.n)
	type frame struct{ node, next int } // next: the column to look at
	for s := 0; s < g.n; s++ {
		if color[s] != 0 {
			continue
		}
		color[s] = 1
		stack := []frame{{node: s}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			row := g.adj[f.node*g.n : (f.node+1)*g.n]
			for f.next < g.n && row[f.next] == 0 {
				f.next++
			}
			if f.next == g.n {
				color[f.node] = 2
				stack = stack[:len(stack)-1]
				continue
			}
			v := f.next
			f.next++
			switch color[v] {
			case 0:
				color[v] = 1
				parent[v] = f.node
				stack = append(stack, frame{node: v})
			case 1:
				var cyc []core.Channel
				for u := f.node; ; u = parent[u] {
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

// cycleString renders a cycle in core.CDG.CycleString's format.
func (g *refCDG) cycleString(cyc []core.Channel) string {
	if len(cyc) == 0 {
		return "<no cycle>"
	}
	names := func(bits uint8) string {
		var parts []string
		for _, c := range []struct {
			bit  uint8
			name string
		}{{core.EdgeRequest, "req"}, {core.EdgeReply, "rep"}, {core.EdgeConversion, "conv"}} {
			if bits&c.bit != 0 {
				parts = append(parts, c.name)
			}
		}
		if len(parts) == 0 {
			return "none"
		}
		return strings.Join(parts, "+")
	}
	var b strings.Builder
	for i, c := range cyc {
		if i > 0 {
			fmt.Fprintf(&b, " =%s=> ", names(g.edgeClass(cyc[i-1], c)))
		}
		b.WriteString(c.String())
	}
	fmt.Fprintf(&b, " =%s=> %s", names(g.edgeClass(cyc[len(cyc)-1], cyc[0])), cyc[0])
	return b.String()
}

// crossCheck holds core.CDG to the reference on one configuration: the same
// class bits on every reference edge, no edge the reference lacks (the edge
// counts agree), the same cycle channel by channel and the same rendering.
// It returns the prover's cycle.
func crossCheck(t *testing.T, name string, cfg config.Config) []core.Channel {
	t.Helper()
	u, asg := pieces(t, cfg)
	vcs := cfg.NoC.VCsPerPort
	g, ref := u.CDG(asg, vcs), newRefCDG(u, asg, vcs)
	edges := 0
	for i := 0; i < ref.n; i++ {
		for j, want := range ref.adj[i*ref.n : (i+1)*ref.n] {
			if want == 0 {
				continue
			}
			edges++
			if got := g.EdgeClass(ref.channel(i), ref.channel(j)); got != want {
				t.Fatalf("%s: edge %s -> %s has class bits %03b, reference %03b", name, ref.channel(i), ref.channel(j), got, want)
			}
		}
	}
	if got := core.CDGEdges(g); got != edges {
		t.Fatalf("%s: %d edges, reference %d", name, got, edges)
	}
	cyc, want := g.FindCycle(), ref.findCycle()
	if !slices.Equal(cyc, want) {
		t.Fatalf("%s: cycle %v, reference %v", name, cyc, want)
	}
	if got, want := g.CycleString(cyc), ref.cycleString(want); got != want {
		t.Fatalf("%s: cycle renders as\n%s\nreference\n%s", name, got, want)
	}
	return cyc
}

// TestCDGMatchesDenseReference cross-checks the sparse prover against the
// dense reference over every placement on 4x4, 6x6 and 8x8 meshes (one MC
// per column, or four where a placement cannot hold that many), every
// routing, and every VC policy at 2 and 4 VCs — the asymmetric split at 1:1
// and 1:3 — and over the 16x16 scale-up (240 SMs, 16 MCs) under bottom XY
// and YX, split and monopolized. Both verdicts must occur, or the check
// would not cover the cycle report.
func TestCDGMatchesDenseReference(t *testing.T) {
	placements := []config.Placement{config.PlacementBottom, config.PlacementTop, config.PlacementEdge, config.PlacementTopBottom, config.PlacementDiamond}
	policies := []config.VCPolicy{config.VCSplit, config.VCAsymmetric, config.VCMonopolized, config.VCPartialMonopolized, config.VCShared}
	var cases []config.Config
	for _, w := range []int{4, 6, 8} {
		for _, pl := range placements {
			mcs := w
			if _, err := placement.New(pl, mesh.New(w, w), mcs); err != nil {
				mcs = 4 // the edge placement holds a multiple of four
			}
			for _, r := range config.Routings() {
				for _, p := range policies {
					for _, vcs := range []int{2, 4} {
						cfg := variant(pl, r, p)
						cfg.NoC.Width, cfg.NoC.Height, cfg.Mem.NumMCs = w, w, mcs
						cfg.Core.NumSMs = w*w - mcs
						cfg.NoC.VCsPerPort = vcs
						cases = append(cases, cfg)
					}
				}
			}
		}
	}
	for _, r := range []config.Routing{config.RoutingXY, config.RoutingYX} {
		for _, p := range []config.VCPolicy{config.VCSplit, config.VCMonopolized} {
			cases = append(cases, scaleUp(r, p))
		}
	}
	safe, unsafe := 0, 0
	for _, cfg := range cases {
		name := fmt.Sprintf("%dx%d/%s/%s/%s/%dvc", cfg.NoC.Width, cfg.NoC.Height, cfg.Placement, cfg.NoC.Routing, cfg.NoC.VCPolicy, cfg.NoC.VCsPerPort)
		if crossCheck(t, name, cfg) == nil {
			safe++
		} else {
			unsafe++
		}
	}
	if safe == 0 || unsafe == 0 {
		t.Errorf("%d safe and %d unsafe configurations: both verdicts must be covered", safe, unsafe)
	}
}
