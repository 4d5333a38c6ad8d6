package noc

import "math/bits"

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

// scheduled popcounts the three run masks.
func (n *Network) scheduled() (routers, links, queues int) {
	count := func(m nodeMask) (c int) {
		for _, w := range m {
			c += bits.OnesCount64(w)
		}
		return c
	}
	return count(n.buffered), count(n.links), count(n.queues)
}

// GateCounts is what the back-pressure gates did since the last Reset (summed
// over both subnets of a Dual).
type GateCounts struct {
	RouterVisits, IdleSkips int64 // router phase: full RC/VA/SA visits, idle routers walked past
	InjectVisits            int64 // inject-phase visits: injectNode on a scheduled queue
	RefusedInjects          int64
	StageCalls              int64 // tick-phase calls of the endpoint stage
	// Link traversals moved straight into a router the walk had passed, and
	// through a link register; credits landed at once in such a router, and
	// deferred to a credit list.
	MovesInPlace, MovesViaReg       int64
	CreditsInPlace, CreditsDeferred int64
}

// Gates reads the networks' visit counters. Call at a cycle boundary.
func Gates(ic Interconnect) GateCounts {
	var g GateCounts
	for _, n := range subnets(ic) {
		g.RouterVisits += n.routerVisits
		g.IdleSkips += n.idleSkips
		g.InjectVisits += n.injectVisits
		g.RefusedInjects += n.refusedInjects
		g.StageCalls += n.stageCalls
		g.MovesInPlace += n.movesInPlace
		g.MovesViaReg += n.movesViaReg
		g.CreditsInPlace += n.creditsInPlace
		g.CreditsDeferred += n.creditsDeferred
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

// RouteTables returns each physical network's next-hop table.
func RouteTables(ic Interconnect) []routeTable {
	var out []routeTable
	for _, n := range subnets(ic) {
		out = append(out, n.routeTab)
	}
	return out
}
