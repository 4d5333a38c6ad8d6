package noc

import (
	"slices"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/vc"
)

// The kernel steps the mesh as one device whatever NoC.Workers says: the field
// is retired and kept only so that stored configurations which carry it
// still decode. The tests below, and the workers=N subtests elsewhere in
// this package (named from when Workers selected a lane-parallel kernel),
// build from configurations carrying such values and hold them to the same
// results.

// newWorkerNet builds a test network from a configuration carrying the
// retired Workers value workers.
func newWorkerNet(t testing.TB, rt config.Routing, pol config.VCPolicy, workers int, opts ...Option) *Network {
	t.Helper()
	cfg := config.Default().NoC
	cfg.Routing = rt
	cfg.VCPolicy = pol
	cfg.Workers = workers
	n := New(cfg, routing.MustNew(rt), vc.MustNewPolicy(cfg), opts...)
	n.EnableStats(true)
	return n
}

// driveLoad injects a deterministic bursty workload for cycles, stepping the
// network each cycle. Sinks periodically refuse flits (as a backpressured MC
// would), as a pure function of node and cycle so every kernel sees the
// identical refusal schedule. The replies carry request timestamps, so an
// attached probe set observes each one into its latency histograms.
func driveLoad(t testing.TB, n *Network, cycles int, seed uint64, check bool) {
	t.Helper()
	nn := n.Mesh().NumNodes()
	for i := 0; i < nn; i++ {
		node := i
		n.SetSink(mesh.NodeID(i), func(f packet.Flit) bool {
			return (n.Cycle()+int64(node))%7 != 0
		})
	}
	r := rng.New(seed)
	id := uint64(0)
	for c := 0; c < cycles; c++ {
		for k := 0; k < 3; k++ {
			id++
			n.Inject(&packet.Packet{
				ID: id, Type: packet.ReadReply,
				Src: r.Intn(nn), Dst: r.Intn(nn),
				Flits: packet.LongFlits, CreatedAt: n.Cycle(), ReqTimed: true,
			})
		}
		n.Step()
		if check && c%64 == 0 {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
}

// spineNodesEqual reports whether two networks injected and ejected the
// same flits at every node since their first cycle.
func spineNodesEqual(a, b *Network) bool {
	return slices.Equal(a.spine.Inj, b.spine.Inj) && slices.Equal(a.spine.Ej, b.spine.Ej)
}

// TestParallelKernelEquivalence: a configuration carrying a Workers value
// once given to the lane-parallel kernel must step bit-identically to
// Workers=1, across routings and VC policies, including mid-run state
// (in-flight, movement tracking) and every statistics accumulator.
func TestParallelKernelEquivalence(t *testing.T) {
	variants := []struct {
		rt  config.Routing
		pol config.VCPolicy
	}{
		{config.RoutingXY, config.VCSplit},
		{config.RoutingYX, config.VCMonopolized},
		{config.RoutingXYYX, config.VCPartialMonopolized},
	}
	for _, v := range variants {
		t.Run(string(v.rt)+"/"+string(v.pol), func(t *testing.T) {
			base := newWorkerNet(t, v.rt, v.pol, 1)
			driveLoad(t, base, 900, 7, true)
			bs := base.Stats()
			for _, w := range []int{2, 4, 8} {
				n := newWorkerNet(t, v.rt, v.pol, w)
				driveLoad(t, n, 900, 7, true)
				if n.FlitsInFlight() != base.FlitsInFlight() {
					t.Errorf("workers=%d: in-flight %d, workers=1 %d", w, n.FlitsInFlight(), base.FlitsInFlight())
				}
				if n.lastMove != base.lastMove {
					t.Errorf("workers=%d: lastMove %d, workers=1 %d", w, n.lastMove, base.lastMove)
				}
				s := n.Stats()
				if !spineNodesEqual(n, base) || s.EjectedFlits != bs.EjectedFlits {
					t.Errorf("workers=%d: flit accounting diverged", w)
				}
				for c := 0; c < packet.NumClasses; c++ {
					if s.NetLatency[c] != bs.NetLatency[c] {
						t.Errorf("workers=%d: class %d latency accumulators diverged", w, c)
					}
					for i := range s.LinkFlits[c] {
						if s.LinkFlits[c][i] != bs.LinkFlits[c][i] {
							t.Fatalf("workers=%d: class %d link %d flit counts diverged", w, c, i)
						}
					}
				}
				if !n.Drain(5000) {
					t.Fatalf("workers=%d failed to drain", w)
				}
			}
			if !base.Drain(5000) {
				t.Fatal("workers=1 failed to drain")
			}
		})
	}
}

// TestParallelKernelUnderLoadRace saturates the kernel, from a
// configuration carrying Workers=4: heavy traffic, sink refusals, invariant
// checks at boundaries, and a full drain that leaves nothing scheduled. It
// runs twice, the second time with telemetry attached, which observes every
// ejection into the latency histograms and runs the observed router phase.
func TestParallelKernelUnderLoadRace(t *testing.T) {
	for _, withTelemetry := range []bool{false, true} {
		n := newWorkerNet(t, config.RoutingXY, config.VCSplit, 4)
		if withTelemetry {
			n.AttachTelemetry(telemetry.NewRegistry())
		}
		driveLoad(t, n, 1500, 42, true)
		if !n.Drain(10000) {
			t.Fatalf("telemetry=%v: failed to drain; %d flits in flight", withTelemetry, n.FlitsInFlight())
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("telemetry=%v: %v", withTelemetry, err)
		}
		if r, l, q := n.scheduled(); r != 0 || l != 0 || q != 0 {
			t.Fatalf("telemetry=%v: drained network still schedules work: %d routers, %d links, %d queues", withTelemetry, r, l, q)
		}
	}
}

// TestParallelKernelClose: Close, the lane-parallel kernel's stop, is inert
// — mid-run, repeated, the network keeps working afterwards.
func TestParallelKernelClose(t *testing.T) {
	n := newWorkerNet(t, config.RoutingXY, config.VCSplit, 4)
	attachCollectors(n)
	if !n.Inject(mkPacket(1, packet.ReadReply, 0, 63, 0)) {
		t.Fatal("injection refused")
	}
	for i := 0; i < 10; i++ {
		n.Step()
	}
	n.Close()
	n.Close()
	if !n.Drain(2000) {
		t.Fatalf("network unusable after Close; %d in flight", n.FlitsInFlight())
	}
}

// TestLaneCallbackInjectVisibleBeforeStep guards the in-flight count: Inject
// adds its flits at once, and everything that reads the fabric between an
// Inject and a Step — FlitsInFlight, Drain's loop condition,
// CheckInvariants — must see them, on the single network (whatever Workers
// value its configuration carries) and on both subnets of a Dual.
func TestLaneCallbackInjectVisibleBeforeStep(t *testing.T) {
	for _, w := range []int{1, 2, 4, 8} {
		n := newWorkerNet(t, config.RoutingXY, config.VCSplit, w)
		cs := attachCollectors(n)
		want := 0
		for i, src := range []mesh.NodeID{0, 9, 31, 32, 63} {
			p := mkPacket(uint64(i+1), packet.ReadReply, src, 63-src, 0)
			if !n.Inject(p) {
				t.Fatalf("workers=%d: injection at node %d refused", w, src)
			}
			want += p.Flits
		}
		if got := n.FlitsInFlight(); got != want {
			t.Fatalf("workers=%d: FlitsInFlight before any Step = %d, want %d", w, got, want)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("workers=%d: invariants before any Step: %v", w, err)
		}
		if !n.Drain(2000) || n.Cycle() == 0 {
			t.Fatalf("workers=%d: Drain stepped %d cycles and left %d flits in flight", w, n.Cycle(), n.FlitsInFlight())
		}
		delivered := 0
		for _, c := range cs {
			delivered += c.flits
		}
		if delivered != want {
			t.Errorf("workers=%d: delivered %d flits, want %d", w, delivered, want)
		}
	}

	cfg := config.Default().NoC
	cfg.Workers = 4
	d := NewDual(cfg, routing.MustNew(cfg.Routing))
	for i := 0; i < cfg.Width*cfg.Height; i++ {
		d.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	req, rep := mkPacket(1, packet.ReadRequest, 3, 60, 0), mkPacket(2, packet.ReadReply, 60, 3, 0)
	if !d.Inject(req) || !d.Inject(rep) {
		t.Fatal("dual: injection refused")
	}
	if got, want := d.FlitsInFlight(), req.Flits+rep.Flits; got != want {
		t.Fatalf("dual: FlitsInFlight before any Step = %d, want %d", got, want)
	}
	if !d.Quiescent(0) {
		t.Error("dual: queued injections with no movement must read as quiescent at window 0")
	}
	if err := d.CheckInvariants(); err != nil {
		t.Errorf("dual: invariants before any Step: %v", err)
	}
}

// TestLaneCallbackConcurrentInject drives Inject the way the gpu layer does:
// from the endpoint stage, every node injecting every cycle. After each Step
// the in-flight count must have grown by what the stage queued minus what
// the sinks took. Networks built from configurations carrying the retired
// Workers values 2, 4 and 8 must match Workers=1 exactly.
func TestLaneCallbackConcurrentInject(t *testing.T) {
	const cycles = 300
	drive := func(n *Network) {
		nn := n.Mesh().NumNodes()
		cs := attachCollectors(n)
		calls := make([]int, nn)  // stage calls per node
		queued := make([]int, nn) // flits Inject accepted at the node
		inject := func(src int) bool {
			calls[src]++
			dst := (src*7 + int(n.Cycle())) % nn
			if n.Inject(&packet.Packet{
				ID: uint64(src+1)<<32 | uint64(n.Cycle()), Type: packet.ReadReply,
				Src: src, Dst: dst, Flits: packet.LongFlits, CreatedAt: n.Cycle(),
			}) {
				queued[src] += packet.LongFlits
			}
			return true
		}
		n.SetStage(inject)
		for c := 0; c < cycles; c++ {
			n.Step()
			want := 0
			for i := range queued {
				want += queued[i] - cs[i].flits
			}
			if got := n.FlitsInFlight(); got != want {
				t.Fatalf("cycle %d: FlitsInFlight %d after the Step, the stage queued and the sinks took %d net", c, got, want)
			}
		}
		for src, k := range calls {
			if k != cycles {
				t.Fatalf("node %d was handed to the stage %d times in %d cycles", src, k, cycles)
			}
		}
		if err := n.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		n.SetStage(nil) // a stage that injects every cycle never drains
	}
	base := newWorkerNet(t, config.RoutingXY, config.VCSplit, 1)
	drive(base)
	bs := base.Stats()
	for _, w := range []int{2, 4, 8} {
		n := newWorkerNet(t, config.RoutingXY, config.VCSplit, w)
		drive(n)
		s := n.Stats()
		if !spineNodesEqual(n, base) || s.EjectedFlits != bs.EjectedFlits ||
			s.NetLatency != bs.NetLatency || n.FlitsInFlight() != base.FlitsInFlight() {
			t.Errorf("workers=%d: statistics diverged from workers=1", w)
		}
		if !n.Drain(20000) {
			t.Fatalf("workers=%d failed to drain", w)
		}
	}
}
