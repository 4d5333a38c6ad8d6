package noc

import (
	"math/bits"
	"slices"
)

// UseReferenceStepper switches a freshly built interconnect — a *Network or
// a *Dual, before its first Step — to stepReference, the naive full-scan
// stepper the equivalence suites hold the shipped kernel to. This file is
// the only way to select it.
func UseReferenceStepper(ic Interconnect) {
	switch n := ic.(type) {
	case *Network:
		n.reference = true
	case *Dual:
		n.request.reference = true
		n.reply.reference = true
	default:
		panic("noc: UseReferenceStepper on a foreign Interconnect")
	}
}

// scheduled popcounts the three run masks over all lanes.
func (n *Network) scheduled() (routers, links, queues int) {
	count := func(m nodeMask) (c int) {
		for _, w := range m {
			c += bits.OnesCount64(w)
		}
		return c
	}
	for i := range n.lanes {
		ln := &n.lanes[i]
		routers += count(ln.routers)
		links += count(ln.links)
		queues += count(ln.queues)
	}
	return
}

// GateCounts is what the back-pressure gates did since construction, summed
// over lanes (and over both subnets of a Dual).
type GateCounts struct {
	RouterVisits, IdleSkips int64 // router phase: full RC/VA/SA visits, idle routers walked past
	InjectVisits            int64 // inject-phase visits: injectNode on a scheduled queue
	RefusedInjects          int64
	StageCalls              int64 // tick-phase calls of the endpoint stage
	// Link traversals moved straight into a router the lane had walked, and
	// through a link register; credits landed at once in such a router, and
	// deferred to a credit list.
	MovesInPlace, MovesViaReg       int64
	CreditsInPlace, CreditsDeferred int64
}

// Gates reads the per-lane visit counters. Call at a cycle boundary.
func Gates(ic Interconnect) GateCounts {
	var g GateCounts
	add := func(n *Network) {
		for i := range n.routers {
			g.RouterVisits += n.routers[i].visits
		}
		for i := range n.lanes {
			ln := &n.lanes[i]
			g.IdleSkips += ln.idleSkips
			g.InjectVisits += ln.injectVisits
			g.RefusedInjects += ln.refusedInjects
			g.StageCalls += ln.stageCalls
			g.MovesInPlace += ln.movesInPlace
			g.MovesViaReg += ln.movesViaReg
			g.CreditsInPlace += ln.creditsInPlace
			g.CreditsDeferred += ln.creditsDeferred
		}
	}
	for _, n := range subnets(ic) {
		add(n)
	}
	return g
}

// subnets returns ic's physical networks: one, or a Dual's two.
func subnets(ic Interconnect) []*Network {
	switch n := ic.(type) {
	case *Network:
		return []*Network{n}
	case *Dual:
		return []*Network{n.request, n.reply}
	}
	panic("noc: foreign Interconnect")
}

// Lanes returns ic's lane count.
func Lanes(ic Interconnect) int { return len(subnets(ic)[0].lanes) }

// SetCut re-cuts ic's lanes at a cycle boundary the way Rebalance does, both
// subnets of a Dual at the same rows: lane i gets rows [cut[i], cut[i+1]),
// cut[0] = 0, cut[lanes] = the mesh height, strictly ascending.
func SetCut(ic Interconnect, cut []int) {
	for _, n := range subnets(ic) {
		n.retile(cut)
	}
}

// RowWork returns the per-row work of the last Rebalance window.
func RowWork(ic Interconnect) []int64 { return subnets(ic)[0].rowWork }

// Cut returns ic's lane cut: lane i owns rows [cut[i], cut[i+1]).
func Cut(ic Interconnect) []int { return slices.Clone(subnets(ic)[0].cut) }

// RouteTables returns each physical network's next-hop table.
func RouteTables(ic Interconnect) []routeTable {
	var out []routeTable
	for _, n := range subnets(ic) {
		out = append(out, n.routeTab)
	}
	return out
}
