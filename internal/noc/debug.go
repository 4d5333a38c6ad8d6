package noc

import (
	"fmt"
	"io"

	"gpgpunoc/internal/mesh"
)

// DumpBlocked writes a human-readable snapshot of every occupied input VC to
// w: which packet is at the front, where it wants to go, and what resource
// it is waiting for — and who sleeps: one line per idle router holding
// flits, and each non-empty injection queue marked blocked (unscheduled: not
// visited until a local VC pops) and/or refused (owes its node an inject
// wake). A sleeper next to the resource it waits for is a lost wake at a
// glance. It is the tool for diagnosing deadlocks and was used to verify the
// protocol-deadlock demonstrations in the test suite.
func (n *Network) DumpBlocked(w io.Writer) {
	for i := range n.routers {
		rt := &n.routers[i]
		if n.idle.has(i) && rt.bufFlits > 0 {
			fmt.Fprintf(w, "router %v idle: %d flits buffered, skipped until a credit returns or a flit arrives in an empty VC\n",
				rt.coord, rt.bufFlits)
		}
		for p := 0; p < mesh.NumPorts; p++ {
			for v := range rt.in[p] {
				ivc := &rt.in[p][v]
				if ivc.buf.len() == 0 {
					continue
				}
				bf := ivc.buf.front()
				f := bf.flit
				reason := "ready"
				switch {
				case ivc.route == mesh.Local:
					reason = "awaiting ejection"
				case ivc.outVC == -1:
					op := &rt.out[ivc.route]
					reason = fmt.Sprintf("awaiting VA on %s (owners=%v)", ivc.route, op.owner)
				default:
					op := &rt.out[ivc.route]
					if op.credits[ivc.outVC] == 0 {
						reason = fmt.Sprintf("no credit on %s vc%d", ivc.route, ivc.outVC)
					}
				}
				fmt.Fprintf(w, "router %v in[%s][%d] occ=%d front=%v head=%v -> %s\n",
					rt.coord, mesh.Direction(p), v, ivc.buf.len(), f.Pkt, f.Head, reason)
			}
		}
	}
	for i := range n.inj {
		if q := &n.inj[i]; q.flits > 0 {
			state := ""
			if !n.queues.has(i) {
				state += " blocked"
			}
			if q.refused {
				state += " refused"
			}
			fmt.Fprintf(w, "inject queue node %d: %d flits queued%s\n", i, q.flits, state)
		}
	}
}
