package noc

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/telemetry"
)

// TestNetworkSpanProbesRecordJourney wires a span collector at rate 1 into
// a bare network and checks a delivered packet's trace holds the full
// milestone sequence with hop count matching the XY route.
func TestNetworkSpanProbesRecordJourney(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	sp, err := telemetry.NewSpans(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	n.SetSpans(sp)

	p := mkPacket(1, packet.ReadRequest, 0, 63, 0)
	if !n.Inject(p) {
		t.Fatal("injection refused")
	}
	for i := 0; i < 200 && n.FlitsInFlight() > 0; i++ {
		n.Step()
	}
	if n.FlitsInFlight() != 0 {
		t.Fatal("packet not delivered")
	}
	if sp.NumTraces() != 1 {
		t.Fatalf("traces = %d, want 1", sp.NumTraces())
	}
	tr := sp.Traces()[0]
	if _, ok := tr.Find(telemetry.EvCreated); !ok {
		t.Error("trace missing created event")
	}
	inj, ok := tr.Find(telemetry.EvInjected)
	if !ok || inj.Cycle != p.InjectedAt {
		t.Errorf("injected event %+v does not match InjectedAt %d", inj, p.InjectedAt)
	}
	ej, ok := tr.Find(telemetry.EvEjected)
	if !ok || ej.Cycle != p.EjectedAt {
		t.Errorf("ejected event %+v does not match EjectedAt %d", ej, p.EjectedAt)
	}
	hops := 0
	for _, e := range tr.Events {
		if e.Kind == telemetry.EvHop {
			hops++
		}
	}
	// XY route 0 -> 63 on the 8x8 mesh: 7 east + 7 south = 14 link hops.
	if hops != 14 {
		t.Errorf("hops = %d, want 14", hops)
	}
}
