// Mesh-state snapshot types, filled by the interconnect's StateSnapshot. The
// simulator fills these at a cycle boundary (between Step calls), so a snapshot is always
// a consistent view — the cycle kernel is never read mid-phase. The types
// live here so noc can construct them without obs importing noc.

package obs

import "fmt"

// LinkState is one directed inter-router link: the downstream input-buffer
// occupancy per VC plus whether the output register holds a flit in
// transit.
type LinkState struct {
	From    int    `json:"from"`
	To      int    `json:"to"`
	Dir     string `json:"dir"`          // output direction at From: N/E/S/W
	VCs     []int  `json:"vc_occupancy"` // downstream input-buffer flits per VC
	RegBusy bool   `json:"reg_busy"`     // link-traversal register holds a flit
}

// NodeState is the local port of one router: injection-queue backlog and
// the local input-VC buffers (ejection side).
type NodeState struct {
	Node     int   `json:"node"`
	Row      int   `json:"row"`
	Col      int   `json:"col"`
	InjQ     int   `json:"injq_flits"`
	LocalVCs []int `json:"local_vc_occupancy"`
}

// SubnetState is a full occupancy snapshot of one physical network.
type SubnetState struct {
	Subnet          string      `json:"subnet"` // "", "req", "rep"
	Cycle           int64       `json:"cycle"`
	InFlight        int         `json:"flits_in_flight"`
	ActiveRouters   int         `json:"active_routers"`   // routers holding a buffered flit or an occupied link register
	ActiveInjectors int         `json:"active_injectors"` // nodes with a non-empty injection queue
	Links           []LinkState `json:"links"`
	Nodes           []NodeState `json:"nodes"`
}

// CountFlits re-derives the subnet's in-flight flit total from the
// snapshot itself: everything buffered at link inputs, in flight on link
// registers, in local ejection buffers, and waiting in injection queues
// (noc counts injection queues as in-flight).
func (st *SubnetState) CountFlits() int {
	total := 0
	for _, l := range st.Links {
		for _, occ := range l.VCs {
			total += occ
		}
		if l.RegBusy {
			total++
		}
	}
	for _, n := range st.Nodes {
		total += n.InjQ
		for _, occ := range n.LocalVCs {
			total += occ
		}
	}
	return total
}

// LaneState is one lane of the parallel kernel's live partition: the mesh
// rows it steps, and its share of the work counted in the window the cut
// was last taken from (0 until the first cut).
type LaneState struct {
	Lane      int     `json:"lane"`
	FirstRow  int     `json:"first_row"`
	Rows      int     `json:"rows"`
	WorkShare float64 `json:"work_share"`
}

// MeshState is one whole-mesh snapshot: the kernel's lanes (the subnets of
// a noc.Dual share one partition) and one or more subnet snapshots (one for
// a single physical network, two for noc.Dual).
type MeshState struct {
	Cycle    int64         `json:"cycle"`
	Width    int           `json:"width"`
	Height   int           `json:"height"`
	InFlight int           `json:"flits_in_flight"`
	Lanes    []LaneState   `json:"lanes"`
	Subnets  []SubnetState `json:"subnets"`
}

// CheckConservation verifies the snapshot is internally consistent: the
// flits visible in buffers and registers must equal the reported in-flight
// totals, per subnet and overall. A violation means the snapshot saw the
// kernel mid-phase (a torn read).
func (ms *MeshState) CheckConservation() error {
	total := 0
	for i := range ms.Subnets {
		st := &ms.Subnets[i]
		if got := st.CountFlits(); got != st.InFlight {
			return fmt.Errorf("obs: subnet %q snapshot sees %d flits but reports %d in flight",
				st.Subnet, got, st.InFlight)
		}
		total += st.InFlight
	}
	if total != ms.InFlight {
		return fmt.Errorf("obs: subnets sum to %d flits but mesh reports %d in flight",
			total, ms.InFlight)
	}
	return nil
}
