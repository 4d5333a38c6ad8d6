package telemetry

import (
	"fmt"
	"strconv"
	"strings"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// Probe naming scheme (see DESIGN.md §8). All names are prefixed by the
// subnet prefix ("" for a single physical network, "req."/"rep." for the
// two subnets of noc.Dual). Names are the JSONL/heatmap column schema; the
// exposition family and labels on the right are declared next to each name
// at its registration site — this file for the fabric, mc/dram/gpu for theirs.
//
//	link.N<from>->N<to>.<class>.flits     counter  noc_link_flits_total{subnet,from*,to*,class}
//	link.N<from>->N<to>.vc<k>.occupancy   gauge    noc_link_vc_occupancy_flits{subnet,from*,to*,vc}
//	node.<id>.injected.flits              counter  noc_node_injected_flits_total{subnet,node*}
//	node.<id>.ejected.flits               counter  noc_node_ejected_flits_total{subnet,node*}
//	node.<id>.injq.flits                  gauge    noc_node_injq_flits{subnet,node*}
//	net.stall.credit|route|vcalloc        counter  noc_stall_cycles_total{subnet,cause}
//	latency.<read|write>.<segment>        histogram noc_latency_cycles{subnet,kind,segment}
//	mc.<i>.*, mc.<i>.dram.*               gauges   noc_mc_*{mc}, noc_mc_dram_*{mc}
//	core.*                                gauges   noc_core_*
//
// (from*, to*, node* each expand to the node id plus its _row and _col.)

// Exposition families of the fabric probes; Summarize folds by these.
const (
	famLinkFlits = "noc_link_flits_total"
	famInjected  = "noc_node_injected_flits_total"
	famEjected   = "noc_node_ejected_flits_total"
	famStall     = "noc_stall_cycles_total"
	famLatency   = "noc_latency_cycles"
)

// Segment indexes the four pieces a memory transaction's end-to-end latency
// decomposes into: waiting in the source's injection queue, crossing the
// request network, being serviced by the MC (L2/DRAM plus reply queueing),
// and crossing the reply network.
type Segment uint8

// Latency segments.
const (
	SegSrcQueue Segment = iota
	SegReqNet
	SegMCService
	SegReplyNet
	// NumSegments is the number of latency segments.
	NumSegments = 4
)

var segmentNames = [NumSegments]string{"srcqueue", "reqnet", "mcservice", "replynet"}

// String names the segment.
func (s Segment) String() string {
	if int(s) < len(segmentNames) {
		return segmentNames[s]
	}
	return fmt.Sprintf("Segment(%d)", uint8(s))
}

// transaction kinds for the latency decomposition.
const (
	txRead = iota
	txWrite
	numTx
)

var txNames = [numTx]string{"read", "write"}

// DefaultLatencyBounds is the bucket layout for latency histograms:
// exponential from 8 to 16384 cycles, which brackets everything from
// zero-load traversal to a deeply congested reply path.
func DefaultLatencyBounds() []int64 { return ExpBounds(8, 2, 12) }

// Spine is the counts a network keeps of its per-flit events, always and
// once, which NetProbes reads through: flits per link (by mesh.LinkIndex)
// and class, flits in and out per node, and the tally of each stall cause.
type Spine struct {
	Link    [packet.NumClasses][]int64
	Inj, Ej []int64
	Stall   *[NumStallCauses]int64
}

// NetProbes is the probe bundle for one physical network: counters over its
// Spine, latency histograms PacketEjected writes, and the gauges the fabric
// adds over its private state through VCOccupancy and InjQueue.
type NetProbes struct {
	lat [numTx][NumSegments]*Histogram

	reg    *Registry
	m      mesh.Mesh
	prefix string
}

// subnet is the exposition label for the probe-name prefix: "req."/"rep."
// name the two subnets of noc.Dual, "" a single physical network.
func (np *NetProbes) subnet() string { return strings.TrimSuffix(np.prefix, ".") }

// nodeLabels appends the id and mesh coordinates of node id under key.
func (np *NetProbes) nodeLabels(labels []string, key string, id mesh.NodeID) []string {
	c := np.m.Coord(id)
	return append(labels, key, strconv.Itoa(int(id)),
		key+"_row", strconv.Itoa(c.Row), key+"_col", strconv.Itoa(c.Col))
}

// linkLabels returns subnet, both endpoints of l, and one trailing pair.
func (np *NetProbes) linkLabels(l mesh.Link, key, value string) []string {
	to, _ := np.m.Neighbor(np.m.Coord(l.From), l.Dir)
	labels := np.nodeLabels([]string{"subnet", np.subnet()}, "from", l.From)
	labels = np.nodeLabels(labels, "to", np.m.ID(to))
	return append(labels, key, value)
}

// LinkName returns the canonical probe-name stem for a directed link:
// "link.N<from>->N<to>".
func LinkName(m mesh.Mesh, l mesh.Link) string {
	to, ok := m.Neighbor(m.Coord(l.From), l.Dir)
	if !ok {
		panic("telemetry: LinkName for a link that does not exist: " + l.String())
	}
	return fmt.Sprintf("link.N%d->N%d", int(l.From), int(m.ID(to)))
}

// NewNetProbes registers the network probe set on reg, with every name
// prefixed by prefix, and returns the bundle.
func NewNetProbes(reg *Registry, m mesh.Mesh, prefix string, sp Spine) *NetProbes {
	np := &NetProbes{reg: reg, m: m, prefix: prefix}
	for _, l := range m.Links() {
		stem := prefix + LinkName(m, l)
		idx := m.LinkIndex(l)
		for c := packet.Class(0); c < packet.NumClasses; c++ {
			reg.CounterOf(fmt.Sprintf("%s.%s.flits", stem, c), Desc{
				Family: famLinkFlits,
				Help:   "Flits that crossed a directed inter-router link, by traffic class.",
				Labels: np.linkLabels(l, "class", c.String()),
			}, &sp.Link[c][idx])
		}
	}
	for id := 0; id < m.NumNodes(); id++ {
		labels := np.nodeLabels([]string{"subnet", np.subnet()}, "node", mesh.NodeID(id))
		reg.CounterOf(fmt.Sprintf("%snode.%d.injected.flits", prefix, id),
			Desc{Family: famInjected, Help: "Flits that entered the fabric at a node.", Labels: labels}, &sp.Inj[id])
		reg.CounterOf(fmt.Sprintf("%snode.%d.ejected.flits", prefix, id),
			Desc{Family: famEjected, Help: "Flits that left the fabric at a node.", Labels: labels}, &sp.Ej[id])
	}
	// Registration order is the column order of series.jsonl.
	for _, c := range []StallCause{StallCredit, StallRoute, StallVCAlloc} {
		reg.CounterOf(prefix+"net.stall."+c.String(), Desc{
			Family: famStall,
			Help:   "Switch-allocation stall attributions, by cause.",
			Labels: []string{"subnet", np.subnet(), "cause", c.String()},
		}, &sp.Stall[c])
	}
	bounds := DefaultLatencyBounds()
	for tx := 0; tx < numTx; tx++ {
		for seg := Segment(0); seg < NumSegments; seg++ {
			np.lat[tx][seg] = reg.Histogram(fmt.Sprintf("%slatency.%s.%s", prefix, txNames[tx], seg), Desc{
				Family: famLatency,
				Help:   "Transaction latency decomposition histogram, in cycles.",
				Labels: []string{"subnet", np.subnet(), "kind", txNames[tx], "segment", seg.String()},
			}, bounds)
		}
	}
	return np
}

// VCOccupancy registers the fill gauge of the input-VC buffer downstream of
// link l. The buffers are router-private, so the fabric supplies the reader;
// fn runs only when a snapshot fires.
func (np *NetProbes) VCOccupancy(l mesh.Link, vc int, fn func() int64) {
	np.reg.GaugeFunc(fmt.Sprintf("%s%s.vc%d.occupancy", np.prefix, LinkName(np.m, l), vc), Desc{
		Family: "noc_link_vc_occupancy_flits",
		Help:   "Downstream input-VC buffer occupancy of a directed link, in flits.",
		Labels: np.linkLabels(l, "vc", strconv.Itoa(vc)),
	}, fn)
}

// InjQueue registers the injection-queue backlog gauge of node id.
func (np *NetProbes) InjQueue(id mesh.NodeID, fn func() int64) {
	np.reg.GaugeFunc(fmt.Sprintf("%snode.%d.injq.flits", np.prefix, int(id)), Desc{
		Family: "noc_node_injq_flits",
		Help:   "Injection-queue backlog at a node, in flits.",
		Labels: np.nodeLabels([]string{"subnet", np.subnet()}, "node", id),
	}, fn)
}

// PacketEjected records per-packet telemetry at tail ejection. For replies
// carrying request-phase timestamps (stamped by the MC) it accumulates the
// four-segment latency decomposition into the class histograms.
func (np *NetProbes) PacketEjected(p *packet.Packet, cycle int64) {
	if p.Class() != packet.Reply || !p.ReqTimed {
		return
	}
	tx := txWrite
	if p.Type == packet.ReadReply {
		tx = txRead
	}
	np.lat[tx][SegSrcQueue].Observe(p.ReqInjectedAt - p.ReqCreatedAt)
	np.lat[tx][SegReqNet].Observe(p.ReqEjectedAt - p.ReqInjectedAt)
	np.lat[tx][SegMCService].Observe(p.InjectedAt - p.ReqEjectedAt)
	np.lat[tx][SegReplyNet].Observe(cycle - p.InjectedAt)
}

// LatencyHistogram returns the decomposition histogram for one transaction
// kind ("read" or "write") and segment; nil for unknown kinds.
func (np *NetProbes) LatencyHistogram(kind string, seg Segment) *Histogram {
	for tx, n := range txNames {
		if n == kind {
			return np.lat[tx][seg]
		}
	}
	return nil
}
