package noc

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

func newTestNet(t testing.TB, rt config.Routing, pol config.VCPolicy, opts ...Option) *Network {
	t.Helper()
	cfg := config.Default().NoC
	cfg.Routing = rt
	cfg.VCPolicy = pol
	n := New(cfg, routing.MustNew(rt), vc.MustNewPolicy(cfg), opts...)
	n.EnableStats(true)
	return n
}

// collector is a sink that records delivered packets per node.
type collector struct {
	packets []*packet.Packet
	flits   int
}

func (c *collector) sink(f packet.Flit) bool {
	c.flits++
	if f.Tail {
		c.packets = append(c.packets, f.Pkt)
	}
	return true
}

func attachCollectors(n *Network) []*collector {
	cs := make([]*collector, n.Mesh().NumNodes())
	for i := range cs {
		cs[i] = &collector{}
		n.SetSink(mesh.NodeID(i), cs[i].sink)
	}
	return cs
}

// drain steps n until no flits remain in flight or maxCycles pass, and
// reports whether it drained.
func drain(n *Network, maxCycles int) bool {
	for i := 0; i < maxCycles && n.FlitsInFlight() > 0; i++ {
		n.Step()
	}
	return n.FlitsInFlight() == 0
}

func mkPacket(id uint64, typ packet.Type, src, dst mesh.NodeID, at int64) *packet.Packet {
	return &packet.Packet{
		ID: id, Type: typ, Src: int(src), Dst: int(dst),
		Flits: packet.Length(typ), CreatedAt: at,
	}
}

func TestSinglePacketDelivery(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	cs := attachCollectors(n)
	src, dst := mesh.NodeID(0), mesh.NodeID(63)
	p := mkPacket(1, packet.ReadReply, src, dst, 0)
	if !n.Inject(p) {
		t.Fatal("injection refused on an empty network")
	}
	if !drain(n, 1000) {
		t.Fatalf("packet did not drain; %d flits in flight", n.FlitsInFlight())
	}
	if len(cs[dst].packets) != 1 || cs[dst].packets[0] != p {
		t.Fatalf("destination got %d packets", len(cs[dst].packets))
	}
	if cs[dst].flits != 5 {
		t.Errorf("destination got %d flits, want 5", cs[dst].flits)
	}
	for i, c := range cs {
		if mesh.NodeID(i) != dst && len(c.packets) > 0 {
			t.Errorf("node %d wrongly received a packet", i)
		}
	}
	// Zero-load latency sanity: 14 hops x 2-cycle router, plus ejection,
	// injection and 4 extra serialization flits. Allow slack but catch
	// gross regressions.
	lat := p.EjectedAt - p.InjectedAt
	if lat < 14*2 || lat > 14*2+20 {
		t.Errorf("zero-load latency = %d cycles for 14 hops, want ~[28, 48]", lat)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSelfDelivery(t *testing.T) {
	// A packet whose source is its destination ejects through the local
	// port without touching the mesh.
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	cs := attachCollectors(n)
	p := mkPacket(1, packet.ReadRequest, 5, 5, 0)
	n.Inject(p)
	if !drain(n, 100) {
		t.Fatal("self-addressed packet stuck")
	}
	if len(cs[5].packets) != 1 {
		t.Fatal("self-addressed packet not delivered")
	}
	if _, cnt := n.Stats().HottestLink(); cnt != 0 {
		t.Errorf("self delivery used %d link traversals, want 0", cnt)
	}
}

func TestFlitOrderingPreserved(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	var seqs []int
	n.SetSink(63, func(f packet.Flit) bool {
		seqs = append(seqs, f.Seq)
		return true
	})
	for i := mesh.NodeID(0); int(i) < 63; i++ {
		n.SetSink(i, func(packet.Flit) bool { return true })
	}
	n.Inject(mkPacket(1, packet.ReadReply, 0, 63, 0))
	drain(n, 1000)
	if len(seqs) != 5 {
		t.Fatalf("got %d flits", len(seqs))
	}
	for i, s := range seqs {
		if s != i {
			t.Fatalf("flit order violated: %v", seqs)
		}
	}
}

func TestManyPacketsConservationAndDeterminism(t *testing.T) {
	run := func(seed uint64) (delivered int, hot int64) {
		n := newTestNet(t, config.RoutingXY, config.VCSplit)
		cs := attachCollectors(n)
		r := rng.New(seed)
		id := uint64(0)
		for cycle := 0; cycle < 2000; cycle++ {
			// Random request/reply traffic from random nodes.
			for k := 0; k < 4; k++ {
				src := mesh.NodeID(r.Intn(64))
				dst := mesh.NodeID(r.Intn(64))
				typ := packet.Type(r.Intn(int(packet.NumTypes)))
				id++
				n.Inject(mkPacket(id, typ, src, dst, n.Cycle()))
			}
			n.Step()
			if cycle%500 == 0 {
				if err := n.CheckInvariants(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if !drain(n, 20000) {
			t.Fatalf("network did not drain: %d flits stuck", n.FlitsInFlight())
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		for _, c := range cs {
			delivered += len(c.packets)
		}
		_, hot = n.Stats().HottestLink()
		return delivered, hot
	}
	d1, h1 := run(42)
	d2, h2 := run(42)
	if d1 != d2 || h1 != h2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", d1, h1, d2, h2)
	}
	if d1 == 0 {
		t.Error("no packets delivered")
	}
}

func TestInjectionBackpressure(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	// Fill node 0's injection queue (capacity 16 flits) without stepping.
	accepted := 0
	for i := 0; i < 100; i++ {
		if n.Inject(mkPacket(uint64(i), packet.ReadReply, 0, 63, 0)) {
			accepted++
		}
	}
	if accepted != 3 { // 3 x 5 flits = 15 <= 16; a 4th does not fit
		t.Errorf("accepted %d packets into a 16-flit queue, want 3", accepted)
	}
	if n.InjectSpace(0) != 1 {
		t.Errorf("InjectSpace = %d, want 1", n.InjectSpace(0))
	}
	if !drain(n, 2000) {
		t.Fatal("queued packets did not drain")
	}
}

func TestSinkRefusalBackpressure(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	// Node 63 refuses everything until released.
	accepting := false
	got := 0
	n.SetSink(63, func(f packet.Flit) bool {
		if !accepting {
			return false
		}
		got++
		return true
	})
	for i := 0; i < 3; i++ {
		n.Inject(mkPacket(uint64(i), packet.ReadReply, 0, 63, 0))
	}
	for i := 0; i < 500; i++ {
		n.Step()
	}
	if got != 0 {
		t.Fatal("sink received flits while refusing")
	}
	if n.FlitsInFlight() == 0 {
		t.Fatal("flits should be parked in the network under sink backpressure")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	accepting = true
	if !drain(n, 2000) {
		t.Fatalf("network did not drain after sink release: %d left", n.FlitsInFlight())
	}
	if got != 15 {
		t.Errorf("sink got %d flits, want 15", got)
	}
}

// TestVCPolicyRespected inspects router state: under the split policy,
// request flits only ever occupy request VCs on mesh links and replies only
// reply VCs.
func TestVCPolicyRespected(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	r := rng.New(7)
	id := uint64(0)
	reqRange := n.pol.RangeFor(mesh.Link{From: 0, Dir: mesh.East}, mesh.Horizontal, packet.Request)
	for cycle := 0; cycle < 1500; cycle++ {
		for k := 0; k < 3; k++ {
			id++
			typ := packet.ReadRequest
			if r.Bool(0.5) {
				typ = packet.ReadReply
			}
			n.Inject(mkPacket(id, typ, mesh.NodeID(r.Intn(64)), mesh.NodeID(r.Intn(64)), n.Cycle()))
		}
		n.Step()
		for i := range n.routers {
			rt := &n.routers[i]
			for p := 0; p < mesh.NumPorts-1; p++ { // mesh input ports only
				for v := range rt.in[p] {
					buf := &rt.in[p][v].buf
					for k := 0; k < buf.len(); k++ {
						bf := buf.buf[(buf.head+k)%len(buf.buf)]
						isReq := bf.flit.Pkt.Class() == packet.Request
						if isReq != reqRange.Contains(v) {
							t.Fatalf("cycle %d: %s flit in VC %d at router %d port %d violates split",
								cycle, bf.flit.Pkt.Class(), v, i, p)
						}
					}
				}
			}
		}
	}
}

func TestAllRoutingsDeliverEverything(t *testing.T) {
	for _, rt := range config.Routings() {
		n := newTestNet(t, rt, config.VCSplit)
		cs := attachCollectors(n)
		id := uint64(0)
		want := 0
		r := rng.New(99)
		for cycle := 0; cycle < 1000; cycle++ {
			id++
			typ := packet.Type(r.Intn(int(packet.NumTypes)))
			if n.Inject(mkPacket(id, typ, mesh.NodeID(r.Intn(64)), mesh.NodeID(r.Intn(64)), n.Cycle())) {
				want++
			}
			n.Step()
		}
		if !drain(n, 20000) {
			t.Fatalf("%s: did not drain", rt)
		}
		got := 0
		for _, c := range cs {
			got += len(c.packets)
		}
		if got != want {
			t.Errorf("%s: delivered %d of %d packets", rt, got, want)
		}
	}
}

func TestMonopolizedUsesAllVCs(t *testing.T) {
	// With the monopolized policy on bottom+XY-like traffic (single class
	// per link), replies must be able to occupy both VCs of a port.
	n := newTestNet(t, config.RoutingXY, config.VCMonopolized)
	attachCollectors(n)
	// Two bottom-row nodes flood replies into column 0: node 57's replies
	// route west to (7,0) and merge with node 56's own replies on the
	// (7,0)->North link, demanding 2 flits/cycle from a 1 flit/cycle link.
	// The backlog forces concurrent packets onto different VCs.
	id := uint64(0)
	sawHighVC := false
	for cycle := 0; cycle < 600; cycle++ {
		id++
		n.Inject(mkPacket(id, packet.ReadReply, 56, mesh.NodeID((id%7)*8), n.Cycle()))
		id++
		n.Inject(mkPacket(id, packet.ReadReply, 57, mesh.NodeID((id%7)*8), n.Cycle()))
		n.Step()
		rt := &n.routers[48] // node directly north of 56
		for v := range rt.in[mesh.South] {
			if v >= n.vcs/2 && rt.in[mesh.South][v].buf.len() > 0 {
				sawHighVC = true
			}
		}
	}
	if !sawHighVC {
		t.Error("monopolized policy never used the upper VC half for replies")
	}
}

func TestSplitConfinesReplies(t *testing.T) {
	// Control for TestMonopolizedUsesAllVCs: under split, replies never
	// appear in the request half.
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	id := uint64(0)
	for cycle := 0; cycle < 600; cycle++ {
		id++
		n.Inject(mkPacket(id, packet.ReadReply, 56, mesh.NodeID((id%7)*8), n.Cycle()))
		id++
		n.Inject(mkPacket(id, packet.ReadReply, 57, mesh.NodeID((id%7)*8), n.Cycle()))
		n.Step()
		rt := &n.routers[48]
		for v := 0; v < n.vcs/2; v++ {
			if rt.in[mesh.South][v].buf.len() > 0 {
				t.Fatal("reply flit in a request VC under the split policy")
			}
		}
	}
}

func TestDualNetworkSeparation(t *testing.T) {
	cfg := config.Default().NoC
	cfg.VCsPerPort = 2
	d := NewDual(cfg, routing.MustNew(config.RoutingXY))
	d.EnableStats(true)
	got := map[packet.Class]int{}
	for i := 0; i < 64; i++ {
		i := i
		d.SetSink(mesh.NodeID(i), func(f packet.Flit) bool {
			if f.Tail {
				got[f.Pkt.Class()]++
			}
			return true
		})
	}
	d.Inject(mkPacket(1, packet.ReadRequest, 0, 63, 0))
	d.Inject(mkPacket(2, packet.ReadReply, 63, 0, 0))
	for i := 0; i < 200; i++ {
		d.Step()
	}
	if d.FlitsInFlight() != 0 {
		t.Fatal("dual network did not drain")
	}
	if got[packet.Request] != 1 || got[packet.Reply] != 1 {
		t.Errorf("deliveries = %v", got)
	}
	// The request subnet must carry no reply flits and vice versa.
	if d.request.Stats().ClassFlits(packet.Reply) != 0 {
		t.Error("reply flits on the request subnet")
	}
	if d.reply.Stats().ClassFlits(packet.Request) != 0 {
		t.Error("request flits on the reply subnet")
	}
	m := d.Stats()
	if m.EjectedFlits[packet.ReadRequest] != packet.ShortFlits || m.EjectedFlits[packet.ReadReply] != packet.LongFlits {
		t.Error("merged stats missing deliveries")
	}
}

// fillQueue injects typ packets at node 0 until one is refused and returns
// how many were accepted.
func fillQueue(t *testing.T, ic Interconnect, typ packet.Type) int {
	t.Helper()
	for i := 0; i < 100; i++ {
		if !ic.Inject(mkPacket(uint64(1000+i), typ, 0, 63, 0)) {
			return i
		}
	}
	t.Fatal("injection queue never filled")
	return 0
}

// TestInjectWake pins the wake contract of SetInjectWake: no wake without a
// refusal, none while the refusing queue has not drained, exactly one from
// the first drain after the refusal, and none again until the next refusal.
func TestInjectWake(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	wakes := 0
	n.SetInjectWake(0, func() { wakes++ })

	n.Inject(mkPacket(1, packet.ReadReply, 0, 63, 0))
	drain(n, 1000)
	if wakes != 0 {
		t.Fatalf("%d wakes with no Inject refused", wakes)
	}

	fillQueue(t, n, packet.ReadReply)
	if wakes != 0 {
		t.Fatalf("%d wakes before the refusing queue drained a flit", wakes)
	}
	n.Step()
	if wakes != 1 {
		t.Fatalf("%d wakes after the first drain following a refusal, want 1", wakes)
	}
	drain(n, 1000)
	if wakes != 1 {
		t.Fatalf("%d wakes for one refusal, want 1", wakes)
	}
}

// TestDualInjectWake: each subnet owes its own wake. A refusal on the
// request subnet is woken by that subnet's drain with the reply subnet
// idle, and the other way round; an endpoint registered once hears both.
func TestDualInjectWake(t *testing.T) {
	for _, c := range []struct {
		name string
		typ  packet.Type // fills (and is refused by) one subnet; the other stays idle
	}{
		{"request subnet refuses", packet.WriteRequest},
		{"reply subnet refuses", packet.ReadReply},
	} {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.Default().NoC
			d := NewDual(cfg, routing.MustNew(config.RoutingXY))
			for i := 0; i < 64; i++ {
				d.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
			}
			wakes := 0
			d.SetInjectWake(0, func() { wakes++ })
			fillQueue(t, d, c.typ)
			busy, idle := d.subnet(c.typ.Class()), d.subnet(1-c.typ.Class())
			if idle.FlitsInFlight() != 0 {
				t.Fatal("the other subnet holds flits")
			}
			d.Step()
			if wakes != 1 {
				t.Fatalf("%d wakes after the refusing subnet's first drain, want 1", wakes)
			}
			for d.FlitsInFlight() > 0 {
				d.Step()
			}
			if wakes != 1 {
				t.Errorf("%d wakes for one refusal, want 1", wakes)
			}
			if g := Gates(d); g.RefusedInjects != 1 {
				t.Errorf("%d refused Injects counted, want 1", g.RefusedInjects)
			}
			if busy.inj[0].refused || idle.inj[0].refused {
				t.Error("a drained queue still owes a wake")
			}
		})
	}
}

func TestLinkStatsMatchRoute(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	p := mkPacket(1, packet.ReadRequest, 0, 63, 0)
	n.Inject(p)
	drain(n, 1000)
	// XY from (0,0) to (7,7): east along row 0, then south down column 7.
	for _, l := range routing.AppendPath(nil, n.Mesh(), n.alg, 0, 63, packet.Request) {
		idx := n.Mesh().LinkIndex(l)
		if n.Stats().LinkFlits[packet.Request][idx] != 1 {
			t.Errorf("link %v traversals = %d, want 1", l, n.Stats().LinkFlits[packet.Request][idx])
		}
	}
	var total int64
	for _, c := range n.Stats().LinkFlits[packet.Request] {
		total += c
	}
	if total != 14 {
		t.Errorf("total link traversals = %d, want 14", total)
	}
}

func TestQuiescentDetection(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	// No sinks anywhere: a delivered packet can never eject, so the
	// network wedges — exactly what Quiescent must detect. (A nil sink
	// marks the node as refusing; only reaching ejection panics.)
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), nil)
	}
	n.Inject(mkPacket(1, packet.ReadRequest, 0, 63, 0))
	for i := 0; i < 300; i++ {
		n.Step()
	}
	if !n.Quiescent(100) {
		t.Error("watchdog failed to flag a wedged network")
	}
	n2 := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n2)
	if n2.Quiescent(1) {
		t.Error("empty network reported quiescent-with-flits")
	}
}
