package noc

import (
	"fmt"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// eachWorkers runs f as a subtest from configurations carrying the retired
// Workers values 1 and 4, which must not change what the kernel does (see
// workers_test.go).
func eachWorkers(t *testing.T, f func(t *testing.T, workers int)) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) { f(t, w) })
	}
}

// TestDrainedNetworkSchedulesNothing: a drained network must have all three
// run masks zero — that emptiness is exactly what makes idle cycles
// near-free — and further Steps must keep them zero while the cycle counter
// advances.
func TestDrainedNetworkSchedulesNothing(t *testing.T) {
	eachWorkers(t, func(t *testing.T, workers int) {
		n := newWorkerNet(t, config.RoutingXY, config.VCSplit, workers)
		attachCollectors(n)
		if !n.Inject(mkPacket(1, packet.ReadReply, 0, 63, 0)) {
			t.Fatal("injection refused")
		}
		if !n.Drain(2000) {
			t.Fatal("failed to drain")
		}
		if r, l, q := n.scheduled(); r != 0 || l != 0 || q != 0 {
			t.Fatalf("drained network still schedules work: %d routers, %d links, %d queues", r, l, q)
		}
		before := n.Cycle()
		for i := 0; i < 100; i++ {
			n.Step()
		}
		if n.Cycle() != before+100 {
			t.Errorf("idle stepping lost cycles: %d -> %d", before, n.Cycle())
		}
		if r, l, q := n.scheduled(); r != 0 || l != 0 || q != 0 {
			t.Errorf("idle stepping scheduled work: %d routers, %d links, %d queues", r, l, q)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Error(err)
		}
	})
}

// TestRunMasksExactUnderLoad holds the scheduling invariant — every run-mask
// bit says exactly what its router or queue holds, all redundant counters
// recount exactly — after every single cycle of a loaded, backpressured
// run, through drain.
func TestRunMasksExactUnderLoad(t *testing.T) {
	eachWorkers(t, runMasksExactUnderLoad)
}

func runMasksExactUnderLoad(t *testing.T, workers int) {
	n := newWorkerNet(t, config.RoutingYX, config.VCMonopolized, workers)
	attachCollectors(n)
	r := rng.New(42)
	id := uint64(0)
	for cycle := 0; cycle < 600; cycle++ {
		for k := 0; k < 3; k++ {
			id++
			n.Inject(&packet.Packet{
				ID: id, Type: packet.ReadReply,
				Src: r.Intn(64), Dst: r.Intn(64),
				Flits: packet.LongFlits,
			})
		}
		n.Step()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	if !n.Drain(5000) {
		t.Fatalf("failed to drain; %d flits in flight", n.FlitsInFlight())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusingSinkKeepsRouterScheduled: a sink that refuses ejection keeps
// the router's routers bit (the flit stays buffered) instead of silently
// unscheduling it, and delivery resumes when the sink relents.
func TestRefusingSinkKeepsRouterScheduled(t *testing.T) {
	eachWorkers(t, refusingSinkKeepsRouterScheduled)
}

func refusingSinkKeepsRouterScheduled(t *testing.T, workers int) {
	n := newWorkerNet(t, config.RoutingXY, config.VCSplit, workers)
	accept := false
	var got []packet.Flit
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(f packet.Flit) bool {
			if !accept {
				return false
			}
			got = append(got, f)
			return true
		})
	}
	if !n.Inject(mkPacket(1, packet.ReadRequest, 5, 58, 0)) {
		t.Fatal("injection refused")
	}
	for i := 0; i < 200; i++ {
		n.Step()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if len(got) != 0 {
		t.Fatal("refusing sink received flits")
	}
	if n.FlitsInFlight() == 0 {
		t.Fatal("packet vanished while its sink was refusing it")
	}
	if !n.buffered.has(58) {
		t.Fatal("router with an ejection-blocked packet lost its routers bit")
	}
	accept = true
	if !n.Drain(100) {
		t.Fatalf("network did not drain after the sink relented; %d in flight", n.FlitsInFlight())
	}
	if len(got) != packet.Length(packet.ReadRequest) {
		t.Fatalf("got %d flits, want %d", len(got), packet.Length(packet.ReadRequest))
	}
}

// TestStepperEquivalenceNetworkLevel drives the two kernels with an
// identical injection schedule at the Network level and requires identical
// statistics, per-cycle movement, and in-flight occupancy — the fastest
// place to localize a divergence the system-level suite would only report
// wholesale. Each variant runs three times, under subtest names kept from
// the lane-parallel kernel: from configurations carrying the retired Workers
// values 1 and 4, and at 4 with a rate-0 span collector attached, which runs
// the observed router phase (idle routers attribute their stalls).
func TestStepperEquivalenceNetworkLevel(t *testing.T) {
	variants := []struct {
		rt   config.Routing
		pol  config.VCPolicy
		opts []Option
	}{
		{config.RoutingXY, config.VCSplit, nil},
		{config.RoutingYX, config.VCMonopolized, nil},
		{config.RoutingXYYX, config.VCPartialMonopolized, nil},
		{config.RoutingXY, config.VCSplit, []Option{WithLinkPeriod(2)}},
		{config.RoutingXY, config.VCShared, []Option{WithPipelineDelay(1)}},
	}
	kernels := []struct {
		name    string
		workers int
		spans   bool
	}{
		{"workers=1", 1, false},
		{"workers=4,pool", 4, false},
		{"workers=4,stepping", 4, true},
	}
	for _, v := range variants {
		t.Run(string(v.rt)+"/"+string(v.pol), func(t *testing.T) {
			for _, k := range kernels {
				t.Run(k.name, func(t *testing.T) {
					opt := newWorkerNet(t, v.rt, v.pol, k.workers, v.opts...)
					ref := newWorkerNet(t, v.rt, v.pol, k.workers, v.opts...)
					ref.reference = true
					if k.spans {
						sp, err := obs.NewSpans(1, 0)
						if err != nil {
							t.Fatal(err)
						}
						opt.SetSpans(sp)
					}
					checkStepperEquivalence(t, opt, ref)
				})
			}
		})
	}
}

// checkStepperEquivalence drives opt and ref with one injection schedule and
// compares them.
func checkStepperEquivalence(t *testing.T, opt, ref *Network) {
	t.Helper()
	attachCollectors(opt)
	attachCollectors(ref)
	inject := func(n *Network, seed uint64) {
		r := rng.New(seed)
		id := uint64(0)
		for cycle := 0; cycle < 800; cycle++ {
			for k := 0; k < 2; k++ {
				id++
				p := &packet.Packet{
					ID: id, Type: packet.ReadReply,
					Src: r.Intn(64), Dst: r.Intn(64),
					Flits: packet.LongFlits, CreatedAt: n.Cycle(),
				}
				n.Inject(p)
			}
			n.Step()
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
	}
	inject(opt, 99)
	inject(ref, 99)
	if opt.FlitsInFlight() != ref.FlitsInFlight() {
		t.Errorf("in-flight diverged: %d vs %d", opt.FlitsInFlight(), ref.FlitsInFlight())
	}
	if opt.lastMove != ref.lastMove {
		t.Errorf("movement tracking diverged: %d vs %d", opt.lastMove, ref.lastMove)
	}
	so, sr := opt.Stats(), ref.Stats()
	if !spineNodesEqual(opt, ref) || so.EjectedFlits != sr.EjectedFlits {
		t.Errorf("flit accounting diverged: inj %v/%v ej %v/%v",
			opt.spine.Inj, ref.spine.Inj, so.EjectedFlits, sr.EjectedFlits)
	}
	for c := 0; c < packet.NumClasses; c++ {
		if so.NetLatency[c] != sr.NetLatency[c] {
			t.Errorf("class %d latency accumulators diverged", c)
		}
		for i := range so.LinkFlits[c] {
			if so.LinkFlits[c][i] != sr.LinkFlits[c][i] {
				t.Fatalf("class %d link %d flit counts diverged", c, i)
			}
		}
	}
	do := opt.Drain(5000)
	dr := ref.Drain(5000)
	if do != dr || opt.FlitsInFlight() != ref.FlitsInFlight() {
		t.Errorf("drain diverged: %v(%d) vs %v(%d)", do, opt.FlitsInFlight(), dr, ref.FlitsInFlight())
	}
}

// TestRouteTablePrecompute: the dense route table must agree with the
// algorithm everywhere (it is built from it, so this guards the indexing),
// and construction above the size bound must fall back to the nil table.
func TestRouteTablePrecompute(t *testing.T) {
	cfg := config.Default().NoC
	alg := routing.MustNew(config.RoutingXYYX)
	n := New(cfg, alg, vc.MustNewPolicy(cfg))
	m := n.Mesh()
	for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
		tab := n.routeTab[cls]
		if tab == nil {
			t.Fatalf("class %v: route table not built for %d nodes", cls, m.NumNodes())
		}
		for cur := 0; cur < m.NumNodes(); cur++ {
			for dst := 0; dst < m.NumNodes(); dst++ {
				want := alg.NextHop(m.Coord(mesh.NodeID(cur)), m.Coord(mesh.NodeID(dst)), cls)
				if got := mesh.Direction(tab[cur*m.NumNodes()+dst]); got != want {
					t.Fatalf("class %v %d->%d: table %v, algorithm %v", cls, cur, dst, got, want)
				}
			}
		}
	}

	big := cfg
	big.Width, big.Height = 40, 40 // 1600 nodes > routeTabMaxNodes
	bn := New(big, alg, vc.MustNewPolicy(big))
	if bn.routeTab[packet.Request] != nil {
		t.Error("route table built past the size bound")
	}
	// The fallback path must still deliver, along the algorithm's route:
	// a reply under XY-YX goes YX, so it leaves node 0 southward.
	bn.EnableStats(true)
	attachCollectors(bn)
	dst := mesh.NodeID(big.Width*big.Height - 1)
	if !bn.Inject(mkPacket(1, packet.ReadReply, 0, dst, 0)) {
		t.Fatal("injection refused")
	}
	if !bn.Drain(5000) {
		t.Fatal("fallback routing failed to deliver")
	}
	path := routing.AppendPath(nil, bn.Mesh(), alg, 0, dst, packet.Reply)
	if path[0].Dir != mesh.South {
		t.Fatalf("reply route starts %s, want S", path[0].Dir)
	}
	flits := int64(packet.Length(packet.ReadReply))
	var total int64
	for _, c := range bn.Stats().LinkFlits[packet.Reply] {
		total += c
	}
	if total != flits*int64(len(path)) {
		t.Errorf("%d reply link traversals, want %d", total, flits*int64(len(path)))
	}
	for _, l := range path {
		if got := bn.Stats().LinkFlits[packet.Reply][bn.Mesh().LinkIndex(l)]; got != flits {
			t.Errorf("link %v carried %d flits, want %d", l, got, flits)
		}
	}
}

// TestInjectQueueReuse: sustained injection through a draining queue must
// not grow the backing array — the head-index compaction reuses it.
func TestInjectQueueReuse(t *testing.T) {
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	id := uint64(0)
	// Warm the queue's backing array up to steady state.
	for i := 0; i < 50; i++ {
		id++
		n.Inject(mkPacket(id, packet.WriteRequest, 9, 54, 0))
		n.Step()
	}
	q := &n.inj[9]
	grew := q.Cap()
	for i := 0; i < 2000; i++ {
		id++
		n.Inject(mkPacket(id, packet.WriteRequest, 9, 54, 0))
		n.Step()
	}
	if q.Cap() > grew {
		t.Errorf("injection queue backing array grew under steady-state traffic: %d -> %d", grew, q.Cap())
	}
	if !n.Drain(5000) {
		t.Fatal("failed to drain")
	}
}
