package noc

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/telemetry"
)

// TestTelemetryMatchesStats checks that the probes and Stats read the same
// spine on a randomized traffic load with the window open from cycle 0:
// per-class link flit totals and per-link counts must agree exactly, and the
// node probes' injected/ejected flit totals must match the per-packet
// accounting, which Stats keeps apart from the spine.
func TestTelemetryMatchesStats(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	reg := telemetry.NewRegistry()
	n.AttachTelemetry(reg)
	attachCollectors(n)

	r := rng.New(42)
	var id uint64
	injected, injFlits := 0, int64(0)
	for cycle := 0; cycle < 4000; cycle++ {
		if cycle < 2000 && r.Float64() < 0.3 {
			id++
			typ := packet.ReadRequest
			if id%3 == 0 {
				typ = packet.ReadReply
			}
			src := mesh.NodeID(r.Intn(64))
			dst := mesh.NodeID(r.Intn(64))
			if p := mkPacket(id, typ, src, dst, int64(cycle)); n.Inject(p) {
				injected++
				injFlits += int64(p.Flits)
			}
		}
		n.Step()
	}
	if n.FlitsInFlight() != 0 {
		t.Fatalf("%d flits still in flight", n.FlitsInFlight())
	}
	if injected == 0 {
		t.Fatal("no packets injected")
	}

	st := n.Stats()
	m := n.Mesh()
	var probeTotal [packet.NumClasses]int64
	for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
		for _, l := range m.Links() {
			v, ok := reg.Value(telemetry.LinkName(m, l) + "." + cls.String() + ".flits")
			if !ok {
				t.Fatalf("missing link probe for %v", l)
			}
			probeTotal[cls] += v
			if want := st.LinkFlits[cls][m.LinkIndex(l)]; v != want {
				t.Errorf("link %v class %s: probe %d, stats %d", l, cls, v, want)
			}
		}
		var statTotal int64
		for _, v := range st.LinkFlits[cls] {
			statTotal += v
		}
		if probeTotal[cls] != statTotal {
			t.Errorf("class %s link total: probe %d, stats %d", cls, probeTotal[cls], statTotal)
		}
		if probeTotal[cls] == 0 {
			t.Errorf("class %s saw no link traffic", cls)
		}
	}

	var inj, ej int64
	values := reg.Snapshot()
	for i, name := range reg.ScalarNames() {
		switch {
		case len(name) > 15 && name[:5] == "node." && name[len(name)-15:] == ".injected.flits":
			inj += values[i]
		case len(name) > 14 && name[:5] == "node." && name[len(name)-14:] == ".ejected.flits":
			ej += values[i]
		}
	}
	var statEj int64
	for typ := 0; typ < packet.NumTypes; typ++ {
		statEj += st.EjectedFlits[typ]
	}
	if inj != injFlits || ej != statEj {
		t.Errorf("inj/ej probes = %d/%d, injected flits %d, ejected stats %d", inj, ej, injFlits, statEj)
	}
	if inj != ej {
		t.Errorf("drained network but injected %d != ejected %d", inj, ej)
	}
}

// TestTelemetryStallAttribution drives a congested hotspot and checks that
// stall cycles are observed and classified into exactly the three causes.
func TestTelemetryStallAttribution(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	reg := telemetry.NewRegistry()
	n.AttachTelemetry(reg)
	attachCollectors(n)

	// Many-to-one traffic into node 0 congests its row and column.
	var id uint64
	for cycle := 0; cycle < 3000; cycle++ {
		if cycle < 1500 {
			for src := 1; src < 64; src += 7 {
				id++
				n.Inject(mkPacket(id, packet.ReadReply, mesh.NodeID(src), 0, int64(cycle)))
			}
		}
		n.Step()
	}
	credit, _ := reg.Value("net.stall.credit")
	route, _ := reg.Value("net.stall.route")
	vcalloc, _ := reg.Value("net.stall.vcalloc")
	if credit+route+vcalloc == 0 {
		t.Fatal("hotspot traffic produced no stall attributions")
	}
	if credit == 0 {
		t.Error("a sustained hotspot must exhaust downstream credits at the merge")
	}
}

// TestDualAttachTelemetry checks the two subnets register disjoint prefixed
// probe sets and traffic lands in the right one.
func TestDualAttachTelemetry(t *testing.T) {
	cfg := config.Default().NoC
	d := NewDual(cfg, routing.MustNew(cfg.Routing))
	reg := telemetry.NewRegistry()
	d.AttachTelemetry(reg)
	for i := 0; i < 64; i++ {
		d.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	d.Inject(mkPacket(1, packet.ReadRequest, 0, 63, 0)) // request subnet
	d.Inject(mkPacket(2, packet.ReadReply, 0, 63, 0))   // reply subnet
	for i := 0; i < 500; i++ {
		d.Step()
	}
	if d.FlitsInFlight() != 0 {
		t.Fatal("packets stuck")
	}
	reqInj, ok := reg.Value("req.node.0.injected.flits")
	if !ok {
		t.Fatal("request subnet probes missing")
	}
	repInj, ok := reg.Value("rep.node.0.injected.flits")
	if !ok {
		t.Fatal("reply subnet probes missing")
	}
	if reqInj != int64(packet.Length(packet.ReadRequest)) {
		t.Errorf("request subnet injected %d flits", reqInj)
	}
	if repInj != int64(packet.Length(packet.ReadReply)) {
		t.Errorf("reply subnet injected %d flits", repInj)
	}
}
