package noc

import (
	"testing"
	"testing/quick"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// TestDeliveryConservationProperty: over random mesh geometries, VC shapes,
// routings and traffic, every accepted packet is delivered exactly once,
// the network drains, and the internal invariants hold throughout.
func TestDeliveryConservationProperty(t *testing.T) {
	f := func(seed uint64, wRaw, hRaw, vcsRaw, depthRaw, rtRaw uint8) bool {
		w := 2 + int(wRaw)%6
		h := 2 + int(hRaw)%6
		vcs := 2 + int(vcsRaw)%3
		depth := 2 + int(depthRaw)%6
		rt := config.Routings()[int(rtRaw)%3]

		cfg := config.Default().NoC
		cfg.Width, cfg.Height = w, h
		cfg.VCsPerPort, cfg.VCDepth = vcs, depth
		cfg.Routing = rt
		n := New(cfg, routing.MustNew(rt), vc.MustNewPolicy(cfg))

		nodes := w * h
		delivered := make(map[uint64]int)
		for i := 0; i < nodes; i++ {
			n.SetSink(mesh.NodeID(i), func(fl packet.Flit) bool {
				if fl.Tail {
					delivered[fl.Pkt.ID]++
				}
				return true
			})
		}

		r := rng.New(seed)
		accepted := map[uint64]bool{}
		id := uint64(0)
		for cycle := 0; cycle < 300; cycle++ {
			id++
			p := &packet.Packet{
				ID:   id,
				Type: packet.Type(r.Intn(int(packet.NumTypes))),
				Src:  r.Intn(nodes), Dst: r.Intn(nodes),
			}
			p.Flits = packet.Length(p.Type)
			if n.Inject(p) {
				accepted[p.ID] = true
			}
			n.Step()
		}
		if !n.Drain(20000) {
			return false
		}
		if n.CheckInvariants() != nil {
			return false
		}
		if len(delivered) != len(accepted) {
			return false
		}
		for pid, count := range delivered {
			if count != 1 || !accepted[pid] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPipelineDelayLatency: per-hop latency scales with the configured
// router pipeline depth.
func TestPipelineDelayLatency(t *testing.T) {
	lat := func(delay int) int64 {
		cfg := config.Default().NoC
		n := New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg), WithPipelineDelay(delay))
		attachCollectors(n)
		p := mkPacket(1, packet.ReadRequest, 0, 7, 0) // 7 hops
		n.Inject(p)
		n.Drain(1000)
		return p.EjectedAt - p.InjectedAt
	}
	l1, l2, l3 := lat(1), lat(2), lat(3)
	if !(l1 < l2 && l2 < l3) {
		t.Errorf("latency vs pipeline depth: %d, %d, %d", l1, l2, l3)
	}
	// Each extra stage adds ~1 cycle per hop (8 hops including ejection).
	if d := l3 - l2; d < 7 || d > 9 {
		t.Errorf("stage increment changed latency by %d, want ~8", d)
	}
}

// TestXYYXPartialPolicyTraffic: the partial (orientation) policy carries
// mixed traffic safely under XY-YX at saturating load.
func TestXYYXPartialPolicyTraffic(t *testing.T) {
	cfg := config.Default().NoC
	cfg.Routing = config.RoutingXYYX
	cfg.VCPolicy = config.VCPartialMonopolized
	n := New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	cs := attachCollectors(n)
	r := rng.New(5)
	id := uint64(0)
	sent := 0
	for cycle := 0; cycle < 3000; cycle++ {
		id++
		typ := packet.ReadRequest
		src, dst := r.Intn(56), 56+r.Intn(8)
		if r.Bool(0.6) {
			typ = packet.ReadReply
			src, dst = dst, src
		}
		if n.Inject(mkPacket(id, typ, mesh.NodeID(src), mesh.NodeID(dst), n.Cycle())) {
			sent++
		}
		n.Step()
	}
	if !n.Drain(30000) {
		t.Fatalf("partial policy wedged under XY-YX: %d flits stuck", n.FlitsInFlight())
	}
	got := 0
	for _, c := range cs {
		got += len(c.packets)
	}
	if got != sent {
		t.Errorf("delivered %d of %d", got, sent)
	}
}

// TestLinkPeriodHalvesBandwidth: with period-2 links a single saturated
// link delivers about half the flits of a full-width one.
func TestLinkPeriodHalvesBandwidth(t *testing.T) {
	throughput := func(period int) int {
		cfg := config.Default().NoC
		n := New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg), WithLinkPeriod(period))
		got := 0
		n.SetSink(1, func(f packet.Flit) bool { got++; return true })
		for i := 0; i < 64; i++ {
			if i != 1 {
				n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
			}
		}
		id := uint64(0)
		for cycle := 0; cycle < 600; cycle++ {
			id++
			n.Inject(mkPacket(id, packet.ReadReply, 0, 1, n.Cycle())) // keep 0->1 saturated
			n.Step()
		}
		return got
	}
	full, half := throughput(1), throughput(2)
	ratio := float64(half) / float64(full)
	if ratio < 0.4 || ratio > 0.6 {
		t.Errorf("half-width link delivered %v of full-width (%d vs %d), want ~0.5", ratio, half, full)
	}
}
