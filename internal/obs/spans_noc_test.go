// Span collection at sample rate 1 against the real fabric: the per-packet
// record must carry everything a full packet trace is read for — the head
// flit's path, the injection/ejection pair behind network latency, and the
// hop count — on a single network and on the two physical subnets of
// noc.Dual alike.

package obs_test

import (
	"reflect"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// tracedFabric builds an 8x8 fabric — one network, or request and reply
// subnets — with all-accepting sinks and a rate-1 span collector attached.
func tracedFabric(t *testing.T, alg config.Routing, dual bool) (noc.Interconnect, *obs.Spans) {
	t.Helper()
	cfg := config.Default().NoC
	cfg.Routing = alg
	var ic noc.Interconnect
	if dual {
		ic = noc.NewDual(cfg, routing.MustNew(alg))
	} else {
		ic = noc.New(cfg, routing.MustNew(alg), vc.MustNewPolicy(cfg))
	}
	for i := 0; i < cfg.Width*cfg.Height; i++ {
		ic.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	sp, err := obs.NewSpans(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	ic.SetSpans(sp)
	return ic, sp
}

func send(t *testing.T, ic noc.Interconnect, id uint64, typ packet.Type, src, dst int) *packet.Packet {
	t.Helper()
	p := &packet.Packet{ID: id, Type: typ, Src: src, Dst: dst, Flits: packet.Length(typ)}
	if !ic.Inject(p) {
		t.Fatalf("packet %d: inject refused", id)
	}
	return p
}

func drain(t *testing.T, ic noc.Interconnect) {
	t.Helper()
	for i := 0; i < 5000 && ic.FlitsInFlight() > 0; i++ {
		ic.Step()
	}
	if ic.FlitsInFlight() > 0 {
		t.Fatal("fabric did not drain")
	}
}

// transact sends a read request src->dst, then — standing in for the memory
// controller — links and sends its five-flit reply dst->src. Replies are
// traced only through that link, exactly as in a full-system run.
func transact(t *testing.T, ic noc.Interconnect, sp *obs.Spans, id uint64, src, dst int) {
	t.Helper()
	req := send(t, ic, id, packet.ReadRequest, src, dst)
	drain(t, ic)
	rep := &packet.Packet{ID: id + 1000, Type: packet.ReadReply, Src: dst, Dst: src,
		Flits: packet.Length(packet.ReadReply)}
	sp.LinkReply(req, rep, ic.Cycle())
	if !ic.Inject(rep) {
		t.Fatalf("reply %d: inject refused", rep.ID)
	}
	drain(t, ic)
}

func traceOf(t *testing.T, sp *obs.Spans, id uint64) *obs.PacketTrace {
	t.Helper()
	for _, tr := range sp.Traces() {
		if tr.ID == id {
			return tr
		}
	}
	t.Fatalf("packet %d was not traced at rate 1", id)
	return nil
}

func eachFabric(t *testing.T, fn func(t *testing.T, dual bool)) {
	t.Run("single", func(t *testing.T) { fn(t, false) })
	t.Run("dual", func(t *testing.T) { fn(t, true) })
}

func TestSpansLifecycle(t *testing.T) {
	eachFabric(t, func(t *testing.T, dual bool) {
		ic, sp := tracedFabric(t, config.RoutingXY, dual)
		transact(t, ic, sp, 1, 0, 63)
		if sp.NumTraces() != 2 {
			t.Fatalf("%d traces, want request and reply", sp.NumTraces())
		}
		for _, tr := range sp.Traces() {
			count := map[obs.EventKind]int{}
			for _, e := range tr.Events {
				count[e.Kind]++
			}
			if count[obs.EvCreated] != 1 || count[obs.EvInjected] != 1 || count[obs.EvEjected] != 1 {
				t.Errorf("%s: created/injected/ejected = %d/%d/%d, want one each", tr.Type,
					count[obs.EvCreated], count[obs.EvInjected], count[obs.EvEjected])
			}
			// One hop event per link whatever the packet length: only the
			// head flit is recorded.
			if count[obs.EvHop] != 14 {
				t.Errorf("%s: %d hop events corner to corner, want 14", tr.Type, count[obs.EvHop])
			}
		}
	})
}

func TestSpansPathMatchesRouting(t *testing.T) {
	for _, alg := range []config.Routing{config.RoutingXY, config.RoutingYX} {
		t.Run(string(alg), func(t *testing.T) {
			eachFabric(t, func(t *testing.T, dual bool) { checkPaths(t, alg, dual) })
		})
	}
}

func checkPaths(t *testing.T, alg config.Routing, dual bool) {
	ic, sp := tracedFabric(t, alg, dual)
	transact(t, ic, sp, 7, 3, 60)
	m := mesh.New(8, 8)
	for _, tc := range []struct {
		id       uint64
		src, dst mesh.NodeID
		cls      packet.Class
	}{{7, 3, 60, packet.Request}, {1007, 60, 3, packet.Reply}} {
		want := routing.AppendPath(nil, m, routing.MustNew(alg), tc.src, tc.dst, tc.cls)
		got := traceOf(t, sp, tc.id).Hops()
		if len(got) != len(want) {
			t.Fatalf("%s: %d hops, routing says %d", tc.cls, len(got), len(want))
		}
		for i, l := range want {
			to, _ := m.Neighbor(m.Coord(l.From), l.Dir)
			if got[i].Node != int(l.From) || got[i].To != int(m.ID(to)) {
				t.Fatalf("%s hop %d: N%d->N%d, routing says %v", tc.cls, i, got[i].Node, got[i].To, l)
			}
		}
	}
}

func TestSpansLatencies(t *testing.T) {
	eachFabric(t, func(t *testing.T, dual bool) {
		ic, sp := tracedFabric(t, config.RoutingXY, dual)
		send(t, ic, 1, packet.ReadRequest, 0, 7)
		long := send(t, ic, 2, packet.ReadRequest, 0, 63)
		if _, ok := traceOf(t, sp, 2).NetLatency(); ok {
			t.Error("latency reported for a packet still in its injection queue")
		}
		drain(t, ic)
		short, okShort := traceOf(t, sp, 1).NetLatency()
		far, okFar := traceOf(t, sp, 2).NetLatency()
		if !okShort || !okFar || short <= 0 || far <= short {
			t.Errorf("latencies 7 hops / 14 hops = %d (%v) / %d (%v)", short, okShort, far, okFar)
		}
		// The pairing is the packet's own stamps: injection to ejection.
		if far != long.EjectedAt-long.InjectedAt {
			t.Errorf("span latency %d, packet stamps say %d", far, long.EjectedAt-long.InjectedAt)
		}
	})
}

func TestSpansHopHistogram(t *testing.T) {
	eachFabric(t, func(t *testing.T, dual bool) {
		ic, sp := tracedFabric(t, config.RoutingXY, dual)
		send(t, ic, 1, packet.ReadRequest, 0, 1)  // 1 hop
		send(t, ic, 2, packet.ReadRequest, 0, 2)  // 2 hops
		send(t, ic, 3, packet.ReadRequest, 8, 10) // 2 hops
		send(t, ic, 4, packet.ReadRequest, 5, 5)  // delivered locally: no hops
		drain(t, ic)
		hist := map[int]int{}
		for _, tr := range sp.Traces() {
			hist[len(tr.Hops())]++
		}
		if want := map[int]int{0: 1, 1: 1, 2: 2}; !reflect.DeepEqual(hist, want) {
			t.Errorf("hops-per-packet histogram = %v, want %v", hist, want)
		}
	})
}

func TestSpansDoNotPerturbSimulation(t *testing.T) {
	eachFabric(t, func(t *testing.T, dual bool) {
		run := func(traced bool) (int64, int64) {
			ic, _ := tracedFabric(t, config.RoutingXY, dual)
			if !traced {
				ic.SetSpans(nil)
			}
			ic.EnableStats(true)
			for i := uint64(0); i < 50; i++ {
				send(t, ic, i+1, packet.ReadRequest, int(i%56), 56+int(i%8))
				ic.Step()
			}
			drain(t, ic)
			_, hot := ic.Stats().HottestLink()
			return hot, ic.Cycle()
		}
		hotOff, cyclesOff := run(false)
		hotOn, cyclesOn := run(true)
		if hotOff != hotOn || cyclesOff != cyclesOn {
			t.Errorf("tracing changed the run: hottest link %d vs %d flits, drained at cycle %d vs %d",
				hotOff, hotOn, cyclesOff, cyclesOn)
		}
	})
}
