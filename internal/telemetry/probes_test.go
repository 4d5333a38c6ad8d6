package telemetry

import (
	"testing"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

func TestLinkName(t *testing.T) {
	m := mesh.New(8, 8)
	if got := LinkName(m, mesh.Link{From: 4, Dir: mesh.South}); got != "link.N4->N12" {
		t.Errorf("LinkName = %q", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("LinkName off the mesh edge did not panic")
		}
	}()
	LinkName(m, mesh.Link{From: 0, Dir: mesh.North})
}

func TestPacketEjectedDecomposition(t *testing.T) {
	reg := NewRegistry()
	m := mesh.New(2, 2)
	np := NewNetProbes(reg, m, "", newSpine(m))

	// A read whose request was created at 10, injected at 15, ejected at 40;
	// the reply was injected at 300 and ejects now at 320.
	p := &packet.Packet{
		Type:          packet.ReadReply,
		InjectedAt:    300,
		ReqCreatedAt:  10,
		ReqInjectedAt: 15,
		ReqEjectedAt:  40,
		ReqTimed:      true,
	}
	np.PacketEjected(p, 320)

	want := map[Segment]int64{
		SegSrcQueue:  5,   // 15-10
		SegReqNet:    25,  // 40-15
		SegMCService: 260, // 300-40
		SegReplyNet:  20,  // 320-300
	}
	for seg, w := range want {
		h := np.LatencyHistogram("read", seg)
		if h.Count() != 1 || h.Sum() != w {
			t.Errorf("read %s: count=%d sum=%d, want one observation of %d",
				seg, h.Count(), h.Sum(), w)
		}
	}
	if h := np.LatencyHistogram("write", SegSrcQueue); h.Count() != 0 {
		t.Error("read reply landed in the write histograms")
	}

	// Replies without request timestamps (synthetic traffic) and request
	// packets are not decomposed.
	np.PacketEjected(&packet.Packet{Type: packet.ReadReply, InjectedAt: 5}, 9)
	np.PacketEjected(&packet.Packet{Type: packet.ReadRequest, ReqTimed: true}, 9)
	if h := np.LatencyHistogram("read", SegReplyNet); h.Count() != 1 {
		t.Errorf("untimed/request packets were decomposed: count=%d", h.Count())
	}

	if np.LatencyHistogram("banana", SegReqNet) != nil {
		t.Error("unknown kind returned a histogram")
	}
}

func TestNetProbesNaming(t *testing.T) {
	reg := NewRegistry()
	m := mesh.New(2, 2)
	NewNetProbes(reg, m, "req.", newSpine(m))
	for _, name := range []string{
		"req.link.N0->N1.request.flits",
		"req.link.N0->N1.reply.flits",
		"req.node.3.injected.flits",
		"req.node.0.ejected.flits",
		"req.net.stall.credit",
		"req.net.stall.route",
		"req.net.stall.vcalloc",
	} {
		if _, ok := reg.Value(name); !ok {
			t.Errorf("probe %q not registered", name)
		}
	}
	if reg.FindHistogram("req.latency.read.mcservice") == nil {
		t.Error("latency histogram not registered under the prefix")
	}
	// A second subnet's probe set must coexist on the same registry.
	NewNetProbes(reg, m, "rep.", newSpine(m))
}

// newSpine returns zeroed spine slots for m, stall tallies included: what a
// network would own and count into.
func newSpine(m mesh.Mesh) Spine {
	sp := Spine{Inj: make([]int64, m.NumNodes()), Ej: make([]int64, m.NumNodes()),
		Stall: new([NumStallCauses]int64)}
	for c := range sp.Link {
		sp.Link[c] = make([]int64, m.NumLinkSlots())
	}
	return sp
}
