// Package analytic implements the closed-form traffic models of Section 3.1:
// Equation 1 (request/reply volume ratio), Equation 2 (per-direction link
// coefficients for XY routing with bottom MCs), and exact link-load maps
// computed by route enumeration (the quantities Figures 4 and 6 illustrate).
//
// The test suite cross-validates these formulas against both the route
// enumerator and the cycle-level simulator, closing the loop between the
// paper's analysis and its evaluation.
package analytic

import (
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
)

// TrafficMix describes the steady-state request mix of a workload, in the
// notation of Equation 1: r and w are the read and write fractions of
// requests (r + w = 1); Ls and Ll the short and long packet lengths.
type TrafficMix struct {
	ReadFrac  float64 // r
	ShortLen  float64 // Ls: read request, write reply
	LongLen   float64 // Ll: read reply, write request
	Injection float64 // lambda, requests per node per cycle (cancels in ratios)
}

// DefaultMix is the paper's framing: 1-flit short packets, 5-flit long
// packets, 75% reads — which yields the reply:request flit ratio of ~2
// observed in Figure 2 and the ~63% read-reply flit share of Figure 3.
func DefaultMix() TrafficMix {
	return TrafficMix{ReadFrac: 0.75, ShortLen: packet.ShortFlits, LongLen: packet.LongFlits, Injection: 1}
}

// RequestVolume returns Trqs of Equation 1: flits of request traffic per
// node per cycle.
func (t TrafficMix) RequestVolume() float64 {
	w := 1 - t.ReadFrac
	return t.Injection * (t.ReadFrac*t.ShortLen + w*t.LongLen)
}

// ReplyVolume returns Trep of Equation 1. Every request produces exactly one
// reply, so the read/write split carries over (r' = r, w' = w).
func (t TrafficMix) ReplyVolume() float64 {
	w := 1 - t.ReadFrac
	return t.Injection * (t.ReadFrac*t.LongLen + w*t.ShortLen)
}

// ReplyRequestRatio returns R = Trep / Trqs. For the default mix R = 2.
func (t TrafficMix) ReplyRequestRatio() float64 {
	return t.ReplyVolume() / t.RequestVolume()
}

// FlitShare returns the fraction of all flits carried by each packet type
// under the mix — the quantity Figure 3 plots per benchmark.
func (t TrafficMix) FlitShare() map[packet.Type]float64 {
	w := 1 - t.ReadFrac
	shares := map[packet.Type]float64{
		packet.ReadRequest:  t.ReadFrac * t.ShortLen,
		packet.WriteRequest: w * t.LongLen,
		packet.ReadReply:    t.ReadFrac * t.LongLen,
		packet.WriteReply:   w * t.ShortLen,
	}
	total := 0.0
	for t := packet.Type(0); t < packet.NumTypes; t++ {
		total += shares[t]
	}
	for t := packet.Type(0); t < packet.NumTypes; t++ {
		shares[t] /= total
	}
	return shares
}

// Equation2Coefficient returns the link-utilization coefficient of
// Equation 2 for the REQUEST network under XY routing with all N MCs on the
// bottom row of an NxN mesh. Row and column are 1-based as in the paper
// (i, j in [1, N]); the returned value counts how many (core, MC) routes use
// the given output port of the router at (i, j).
func Equation2Coefficient(n, i, j int, d mesh.Direction) int {
	switch d {
	case mesh.South:
		return n * i
	case mesh.North:
		return n * (i - 1)
	case mesh.East:
		return j * (n - j)
	case mesh.West:
		return (n - j + 1) * (j - 1)
	default:
		return 0
	}
}

// LinkLoad is the expected flit load per directed link: the number of
// (core, MC) routes crossing the link, weighted by the per-route flit volume.
type LinkLoad struct {
	Mesh mesh.Mesh
	// Routes counts routes per link per class (unweighted route counts, the
	// coefficients drawn in Figures 4 and 6).
	Routes [packet.NumClasses][]int
}

// ComputeLinkLoad enumerates every (core, MC) route of both classes under
// the placement and routing algorithm and accumulates per-link route counts.
func ComputeLinkLoad(m mesh.Mesh, pl *placement.Placement, alg routing.Algorithm) *LinkLoad {
	ll := &LinkLoad{Mesh: m}
	for c := range ll.Routes {
		ll.Routes[c] = make([]int, m.NumLinkSlots())
	}
	for _, coreID := range pl.Cores() {
		for i := range pl.MCs {
			mcID := pl.MCNode(i)
			for _, l := range routing.Path(m, alg, coreID, mcID, packet.Request) {
				ll.Routes[packet.Request][m.LinkIndex(l)]++
			}
			for _, l := range routing.Path(m, alg, mcID, coreID, packet.Reply) {
				ll.Routes[packet.Reply][m.LinkIndex(l)]++
			}
		}
	}
	return ll
}

// RouteCount returns the number of routes of class cls crossing link l.
func (ll *LinkLoad) RouteCount(l mesh.Link, cls packet.Class) int {
	return ll.Routes[cls][ll.Mesh.LinkIndex(l)]
}

// FlitLoad returns the expected flit volume on link l per injection round
// (each core sending one request to each MC and receiving one reply), under
// mix t: route count x mean packet length of the class.
func (ll *LinkLoad) FlitLoad(l mesh.Link, t TrafficMix) float64 {
	w := 1 - t.ReadFrac
	reqLen := t.ReadFrac*t.ShortLen + w*t.LongLen
	repLen := t.ReadFrac*t.LongLen + w*t.ShortLen
	return float64(ll.RouteCount(l, packet.Request))*reqLen +
		float64(ll.RouteCount(l, packet.Reply))*repLen
}

// MaxLoad returns the hottest link and its flit load — the analytic
// bandwidth bottleneck the proposed schemes attack.
func (ll *LinkLoad) MaxLoad(t TrafficMix) (mesh.Link, float64) {
	var best mesh.Link
	bestLoad := -1.0
	for _, l := range ll.Mesh.Links() {
		if load := ll.FlitLoad(l, t); load > bestLoad {
			best, bestLoad = l, load
		}
	}
	return best, bestLoad
}
