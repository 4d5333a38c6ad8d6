package telemetry

import (
	"testing"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// The probe hot path's zero-allocation contract — Counter.Inc/Add,
// Gauge.Set/Add, Histogram.Observe and NetProbes.PacketEjected — is checked
// here on the real code; the noc kernel's steady-state pin covers the same
// probes as the network drives them.

func TestProbeUpdatesDoNotAllocate(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c", Desc{})
	g := reg.Gauge("g", Desc{})
	h := reg.Histogram("h", Desc{}, ExpBounds(8, 2, 12))

	allocs := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		g.Set(7)
		g.Add(-2)
		h.Observe(129)
	})
	if allocs != 0 {
		t.Errorf("probe updates allocated %.1f times per run, want 0", allocs)
	}
}

func TestPacketEjectedDoesNotAllocate(t *testing.T) {
	reg := NewRegistry()
	m := mesh.New(4, 4)
	np := NewNetProbes(reg, m, "", newSpine(m))
	p := &packet.Packet{
		Type:          packet.ReadReply,
		ReqTimed:      true,
		ReqCreatedAt:  0,
		ReqInjectedAt: 4,
		ReqEjectedAt:  40,
		InjectedAt:    90,
	}
	allocs := testing.AllocsPerRun(100, func() {
		np.PacketEjected(p, 160)
	})
	if allocs != 0 {
		t.Errorf("PacketEjected allocated %.1f times per run, want 0", allocs)
	}
}
