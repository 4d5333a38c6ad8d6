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
	RouterVisits, IdleSkips int64 // router-phase visits: full RC/VA/SA, idle early-out
	InjectVisits            int64 // inject-phase visits: injectNode on a scheduled queue
	RefusedInjects          int64
}

// Gates reads the per-lane visit counters. Call at a cycle boundary.
func Gates(ic Interconnect) GateCounts {
	var g GateCounts
	add := func(n *Network) {
		for i := range n.lanes {
			ln := &n.lanes[i]
			g.RouterVisits += ln.routerVisits
			g.IdleSkips += ln.idleSkips
			g.InjectVisits += ln.injectVisits
			g.RefusedInjects += ln.refusedInjects
		}
	}
	switch n := ic.(type) {
	case *Network:
		add(n)
	case *Dual:
		add(n.request)
		add(n.reply)
	default:
		panic("noc: Gates on a foreign Interconnect")
	}
	return g
}
