package synthetic

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/workload"
)

func TestBasicEchoFlow(t *testing.T) {
	p := DefaultParams()
	h := MustNew(p)
	st, dead := h.Run(1000, 4000)
	if dead {
		t.Fatal("safe configuration reported deadlock")
	}
	if h.RepliesDelivered == 0 {
		t.Fatal("no replies delivered")
	}
	// Every ejected request eventually yields one reply; over a long run
	// the reply/request packet counts should be close.
	var reqs, reps int64
	for typ, flits := range st.EjectedFlits { // each type has a fixed flit count
		n := flits / int64(packet.Length(packet.Type(typ)))
		if packet.Type(typ).Class() == packet.Request {
			reqs += n
		} else {
			reps += n
		}
	}
	if reqs == 0 || reps == 0 {
		t.Fatalf("requests=%d replies=%d", reqs, reps)
	}
	if ratio := float64(reps) / float64(reqs); ratio < 0.8 || ratio > 1.2 {
		t.Errorf("reply/request packet ratio = %.2f, want ~1", ratio)
	}
}

// TestReplyRequestFlitRatio reproduces the Figure 2 geomean: with the 75%
// read mix, reply flit volume is about twice the request volume.
func TestReplyRequestFlitRatio(t *testing.T) {
	p := DefaultParams()
	h := MustNew(p)
	st, dead := h.Run(1000, 6000)
	if dead {
		t.Fatal("unexpected deadlock")
	}
	req := float64(st.ClassFlits(packet.Request))
	rep := float64(st.ClassFlits(packet.Reply))
	if math.Abs(rep/req-2.0) > 0.25 {
		t.Errorf("reply:request flit ratio = %.2f, want ~2.0", rep/req)
	}
}

// TestLinkCoefficientsMatchSimulation closes the loop between Equation 2 /
// Figure 4 and the cycle-level simulator: measured per-link request flit
// counts under bottom+XY must be proportional to the analytic route counts.
func TestLinkCoefficientsMatchSimulation(t *testing.T) {
	p := DefaultParams()
	p.InjectionRate = 0.02 // light load: routes, not contention, set the shape
	h := MustNew(p)
	st, dead := h.Run(2000, 30000)
	if dead {
		t.Fatal("unexpected deadlock")
	}
	m, u := h.Structure.Mesh, h.Structure.Usage

	// Compare measured vs analytic as normalized distributions over links.
	var measuredTotal, analyticTotal float64
	for _, l := range m.Links() {
		measuredTotal += float64(st.LinkFlits[packet.Request][m.LinkIndex(l)])
		analyticTotal += float64(u.RouteCount(l, packet.Request))
	}
	if measuredTotal == 0 {
		t.Fatal("no request traffic measured")
	}
	var worst float64
	for _, l := range m.Links() {
		meas := float64(st.LinkFlits[packet.Request][m.LinkIndex(l)]) / measuredTotal
		ana := float64(u.RouteCount(l, packet.Request)) / analyticTotal
		if ana == 0 {
			if meas > 0 {
				t.Errorf("link %v carries traffic but analytic says zero", l)
			}
			continue
		}
		if diff := math.Abs(meas - ana); diff > worst {
			worst = diff
		}
	}
	if worst > 0.01 {
		t.Errorf("worst per-link share deviation = %.4f, want < 0.01", worst)
	}
}

// TestProtocolDeadlockDemonstration is the paper's safety argument run in
// anger. The shared (non-partitioned) VC policy on a configuration that
// mixes request and reply traffic on the same links wedges under load —
// genuine protocol deadlock — while the identical load with the split
// policy, and the identical shared policy on the non-mixing bottom+XY
// configuration (i.e. VC monopolizing), both complete.
func TestProtocolDeadlockDemonstration(t *testing.T) {
	base := DefaultParams()
	base.InjectionRate = 0.40 // saturating load
	base.MCQueue = 4
	base.MCLatency = 60

	// Unsafe: diamond placement mixes classes everywhere; shared VCs. Only
	// AllowUnsafe gets it built.
	unsafe := base
	unsafe.Config.Placement = config.PlacementDiamond
	unsafe.Config.NoC.VCPolicy = config.VCShared
	unsafe.Config.AllowUnsafe = true
	_, dead := MustNew(unsafe).Run(40000, 1)
	if !dead {
		t.Error("shared VCs on a mixing configuration should protocol-deadlock under saturation")
	}

	// Safe control 1: same placement and load, split VCs.
	safe := base
	safe.Config.Placement = config.PlacementDiamond
	safe.Config.NoC.VCPolicy = config.VCSplit
	_, dead = MustNew(safe).Run(40000, 1)
	if dead {
		t.Error("split VCs must not deadlock")
	}

	// Safe control 2: shared VCs where classes never share links
	// (bottom+XY) — this IS the paper's VC monopolizing.
	mono := base
	mono.Config.Placement = config.PlacementBottom
	mono.Config.NoC.VCPolicy = config.VCMonopolized
	_, dead = MustNew(mono).Run(40000, 1)
	if dead {
		t.Error("monopolized VCs on bottom+XY must not deadlock")
	}
}

// TestValidateRejectsUnsafe: the constructor refuses an unsafe design point
// through config.Validate, as gpu.New does, unless AllowUnsafe is set.
func TestValidateRejectsUnsafe(t *testing.T) {
	p := DefaultParams()
	p.Config.Placement = config.PlacementDiamond
	p.Config.NoC.VCPolicy = config.VCMonopolized
	_, err := New(p)
	if want := p.Config.Validate(); err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("diamond+XY+monopolized: New says %v, want config.Validate's %v", err, want)
	}
	p.Config.AllowUnsafe = true
	if _, err := New(p); err != nil {
		t.Errorf("AllowUnsafe should build diamond+XY+monopolized: %v", err)
	}
	p.Config.AllowUnsafe = false
	p.Config.NoC.VCPolicy = config.VCSplit
	if _, err := New(p); err != nil {
		t.Errorf("validation should accept diamond+XY+split: %v", err)
	}
}

// TestNewRejectsTooManyVCs: a VC count the router cannot hold is refused
// with config.Validate's error, not a panic inside noc.New.
func TestNewRejectsTooManyVCs(t *testing.T) {
	p := DefaultParams()
	p.Config.NoC.VCsPerPort = 13
	if _, err := New(p); err == nil || !strings.HasPrefix(err.Error(), "config: 13 VCs per port exceed") {
		t.Errorf("VCsPerPort 13: %v, want config.Validate's error", err)
	}
}

// TestSharedStructureWithGPU: a harness and a simulator of one design point
// share its core.Structure, and two harnesses of it stepped on two
// goroutines at once each leave what a solo run leaves — the race detector
// must see no write to what they share.
func TestSharedStructureWithGPU(t *testing.T) {
	p := DefaultParams()
	p.InjectionRate = 0.15
	h := MustNew(p)
	st, err := core.StructureFor(p.Config)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := gpu.New(config.Default(), workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	if h.Structure != st || sim.Place != st.Placement {
		t.Fatal("the harness and gpu.New of one design point do not share its core.Structure")
	}

	seeds := []uint64{1, 7}
	run := func(seed uint64) string {
		q := p
		q.Config.Seed = seed
		s, dead := MustNew(q).Run(500, 2000)
		return fmt.Sprintf("%v %+v", dead, *s)
	}
	var solo []string
	for _, seed := range seeds {
		solo = append(solo, run(seed))
	}
	got := make([]string, len(seeds))
	var wg sync.WaitGroup
	for i, seed := range seeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(seed)
		}()
	}
	wg.Wait()
	for i := range seeds {
		if got[i] != solo[i] {
			t.Errorf("seed %d beside another harness of its structure differs from its solo run", seeds[i])
		}
	}
}

// TestThroughputImprovesWithMonopolizing: at saturating load on bottom+YX,
// monopolized VCs deliver more flits per cycle than split VCs — the
// mechanism behind Figure 8.
func TestThroughputImprovesWithMonopolizing(t *testing.T) {
	run := func(pol config.VCPolicy, rt config.Routing) float64 {
		p := DefaultParams()
		p.InjectionRate = 0.5
		p.Config.NoC.VCPolicy = pol
		p.Config.NoC.Routing = rt
		h := MustNew(p)
		st, dead := h.Run(2000, 8000)
		if dead {
			t.Fatalf("%s/%s deadlocked", pol, rt)
		}
		return st.Throughput()
	}
	split := run(config.VCSplit, config.RoutingYX)
	mono := run(config.VCMonopolized, config.RoutingYX)
	t.Logf("YX saturation throughput: split=%.3f mono=%.3f flits/cycle", split, mono)
	if mono <= split {
		t.Errorf("monopolizing should raise saturation throughput: split=%.3f mono=%.3f", split, mono)
	}
}

// TestRoutingThroughputOrdering: saturation throughput orders XY < YX and
// XY < XY-YX on the bottom placement (Figure 7's mechanism).
func TestRoutingThroughputOrdering(t *testing.T) {
	run := func(rt config.Routing) float64 {
		p := DefaultParams()
		p.InjectionRate = 0.5
		p.Config.NoC.Routing = rt
		if rt == config.RoutingXYYX {
			p.Config.NoC.VCPolicy = config.VCSplit
		}
		h := MustNew(p)
		st, dead := h.Run(2000, 8000)
		if dead {
			t.Fatalf("%s deadlocked", rt)
		}
		return st.Throughput()
	}
	xy, yx, xyyx := run(config.RoutingXY), run(config.RoutingYX), run(config.RoutingXYYX)
	t.Logf("saturation throughput: XY=%.3f YX=%.3f XY-YX=%.3f flits/cycle", xy, yx, xyyx)
	if yx <= xy {
		t.Errorf("YX (%.3f) should beat XY (%.3f) on bottom placement", yx, xy)
	}
	if xyyx <= xy {
		t.Errorf("XY-YX (%.3f) should beat XY (%.3f) on bottom placement", xyyx, xy)
	}
}

// TestDualNetworkComparable: two physical subnets perform comparably to one
// network with split VCs (Section 4.2's "network division" result).
func TestDualNetworkComparable(t *testing.T) {
	run := func(dual bool) float64 {
		p := DefaultParams()
		p.InjectionRate = 0.15
		p.Config.NoC.PhysicalSubnets = dual
		h := MustNew(p)
		st, dead := h.Run(2000, 8000)
		if dead {
			t.Fatalf("dual=%v deadlocked", dual)
		}
		return st.Throughput()
	}
	single, dual := run(false), run(true)
	t.Logf("throughput: single=%.3f dual=%.3f", single, dual)
	if single == 0 || dual == 0 {
		t.Fatal("no throughput measured")
	}
	if r := single / dual; r < 0.85 || r > 1.35 {
		t.Errorf("single/dual throughput ratio = %.2f, want within ~noise of 1", r)
	}
}

// TestDualHalfWidthCostsBandwidth: an equal-wire-budget physical split
// (half-width channels) delivers less than the single network under load —
// the structural argument for logical division.
func TestDualHalfWidthCostsBandwidth(t *testing.T) {
	run := func(dual, half bool) float64 {
		p := DefaultParams()
		p.InjectionRate = 0.15
		p.Config.NoC.PhysicalSubnets = dual
		p.Config.NoC.SubnetHalfWidth = half
		h := MustNew(p)
		st, dead := h.Run(2000, 8000)
		if dead {
			t.Fatalf("dual=%v half=%v deadlocked", dual, half)
		}
		return st.Throughput()
	}
	single, dualHalf := run(false, false), run(true, true)
	t.Logf("throughput: single=%.3f dual(half-width)=%.3f", single, dualHalf)
	if dualHalf >= single {
		t.Errorf("half-width dual (%.3f) should trail the single network (%.3f)", dualHalf, single)
	}
}

func TestOpenLoopDropsUnderOverload(t *testing.T) {
	p := DefaultParams()
	p.InjectionRate = 1.0
	p.CoreBacklog = 2
	h := MustNew(p)
	if _, dead := h.Run(500, 1500); dead {
		t.Fatal("unexpected deadlock")
	}
	if h.RequestsDropped == 0 {
		t.Error("open-loop overload should drop requests at the backlog bound")
	}
}
