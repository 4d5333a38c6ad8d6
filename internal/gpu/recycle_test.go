package gpu

import (
	"context"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/workload"
)

// emptyIdle empties Run's idle list for the test and again after it.
func emptyIdle(t *testing.T) {
	t.Helper()
	drop := func() {
		idle.Lock()
		idle.sims = nil
		idle.Unlock()
	}
	drop()
	t.Cleanup(drop)
}

func idleSims() []*Simulator {
	idle.Lock()
	defer idle.Unlock()
	return slices.Clone(idle.sims)
}

// runCfg is a short run of the Table 2 system.
func runCfg(seed uint64) config.Config {
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed = 300, 700, seed
	return cfg
}

// TestRunRecyclesCompletedRuns: a run that completes parks its simulator
// and the next run of the same shape takes it back; a cancelled,
// deadlocked or instrumented run parks nothing, and neither does a failed
// one.
func TestRunRecyclesCompletedRuns(t *testing.T) {
	emptyIdle(t)
	ctx := context.Background()
	if _, err := Run(ctx, runCfg(1), "KMN", Instrumentation{}); err != nil {
		t.Fatal(err)
	}
	first := idleSims()
	if len(first) != 1 {
		t.Fatalf("a completed run left %d simulators idle, want 1", len(first))
	}
	if _, err := Run(ctx, runCfg(2), "RAY", Instrumentation{}); err != nil {
		t.Fatal(err)
	}
	if again := idleSims(); len(again) != 1 || again[0] != first[0] {
		t.Fatalf("a second run of the same shape did not take the idle simulator back: %d idle", len(again))
	}

	emptyIdle(t)
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := Run(cancelled, runCfg(1), "KMN", Instrumentation{}); err == nil {
		t.Fatal("a cancelled run returned no error")
	}
	if _, err := Run(ctx, runCfg(1), "KMN", Instrumentation{SanitizeEvery: 512}); err != nil {
		t.Fatal(err)
	}
	bad := runCfg(1)
	bad.NoC.Routing = "spiral"
	if _, err := Run(ctx, bad, "KMN", Instrumentation{}); err == nil {
		t.Fatal("an invalid configuration ran")
	}
	wedge := runCfg(1)
	wedge.Placement = config.PlacementDiamond
	wedge.NoC.VCPolicy = config.VCShared
	wedge.Mem.MCRequestQueue = 4
	wedge.WarmupCycles = 30000
	wedge.AllowUnsafe = true
	if res, err := Run(ctx, wedge, "KMN", Instrumentation{}); err != nil || !res.Deadlocked {
		t.Fatalf("the wedging design point: deadlocked %t, error %v", res.Deadlocked, err)
	}
	if n := len(idleSims()); n != 0 {
		t.Errorf("cancelled, instrumented, invalid and deadlocked runs left %d simulators idle, want 0", n)
	}
}

// TestRunRewiresIdleSimulators pins the gain of rewiring over rebuilding:
// after a Table 2 run, a Run of another placement, routing and VC policy at
// the same size takes the parked simulator back and allocates less than a
// quarter of what a New of that design point does. On 8x8 a New is about
// 1.09 MB and the recycled Run 36-92 KB (most of it the endpoints' free
// lists taking back the packets the first run left in flight), so a Run
// that rebuilt would fail by a margin of four.
func TestRunRewiresIdleSimulators(t *testing.T) {
	emptyIdle(t)
	ctx := context.Background()
	other := runCfg(2)
	other.Placement, other.NoC.Routing, other.NoC.VCPolicy = config.PlacementEdge, config.RoutingXYYX, config.VCPartialMonopolized
	kmn := workload.MustGet("KMN")
	if _, err := New(other, kmn); err != nil { // builds and proves other's core.Structure
		t.Fatal(err)
	}
	newBytes := allocated(func() {
		if _, err := New(other, kmn); err != nil {
			t.Fatal(err)
		}
	})
	if _, err := Run(ctx, runCfg(1), "KMN", Instrumentation{}); err != nil {
		t.Fatal(err)
	}
	parked := idleSims()
	runBytes := allocated(func() {
		if _, err := Run(ctx, other, "KMN", Instrumentation{}); err != nil {
			t.Fatal(err)
		}
	})
	if again := idleSims(); len(parked) != 1 || !slices.Equal(again, parked) {
		t.Errorf("a run of another design point did not take the idle simulator back")
	}
	if runBytes > newBytes/4 {
		t.Errorf("a run rewiring an idle simulator allocated %d B, want at most a quarter of New's %d B", runBytes, newBytes)
	}
}

// allocated returns the bytes fn allocates on the heap.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestIdleListBound: the idle list keeps at most GOMAXPROCS simulators, the
// most recently parked, and a run that finds none of its shape drops the
// oldest before it builds its own.
func TestIdleListBound(t *testing.T) {
	emptyIdle(t)
	procs := runtime.GOMAXPROCS(0)
	cfgOf := func(depth int) config.Config {
		cfg := runCfg(1)
		cfg.WarmupCycles, cfg.MeasureCycles = 10, 10
		cfg.NoC.VCDepth = depth // one shape each
		return cfg
	}
	var sims []*Simulator
	for i := 0; i <= procs; i++ {
		sim, err := New(cfgOf(4+i), workload.MustGet("NQU"))
		if err != nil {
			t.Fatal(err)
		}
		sims = append(sims, sim)
		park(sim)
	}
	if got := idleSims(); !slices.Equal(got, sims[1:]) {
		t.Fatalf("after parking %d simulators the idle list holds %d, want the last GOMAXPROCS = %d", len(sims), len(got), procs)
	}
	if _, err := Run(context.Background(), cfgOf(4+procs+1), "NQU", Instrumentation{}); err != nil {
		t.Fatal(err)
	}
	got := idleSims()
	if len(got) != procs || slices.Contains(got, sims[1]) || shape(got[len(got)-1].Cfg) != shape(cfgOf(4+procs+1)) {
		t.Errorf("a run of a new shape did not replace the oldest idle simulator with its own")
	}
}

// snapshot is a deep copy of what a Result reports.
type snapshot struct {
	IPC float64
	GPU stats.GPU
	Net stats.Net
}

func snap(res Result) snapshot {
	net := *res.Net
	for c := range net.LinkFlits {
		net.LinkFlits[c] = slices.Clone(net.LinkFlits[c])
	}
	return snapshot{res.IPC, res.GPU, net}
}

// TestRunResultOwnsItsStorage: a Result stays what it was when the
// simulator that produced it runs the next job. Run A, copy its result, run
// B on the simulator A parked: A's result must still equal the copy — on
// one network, where the result holds the network's collector, and on two
// physical subnets, where it holds the merged one.
func TestRunResultOwnsItsStorage(t *testing.T) {
	for _, dual := range []bool{false, true} {
		emptyIdle(t)
		cfgA := runCfg(1)
		if dual {
			cfgA.NoC.PhysicalSubnets, cfgA.NoC.VCsPerPort = true, 4
		}
		a, err := Run(context.Background(), cfgA, "KMN", Instrumentation{})
		if err != nil {
			t.Fatal(err)
		}
		want := snap(a)
		parked := idleSims()
		cfgB := cfgA
		cfgB.Seed = 2
		if _, err := Run(context.Background(), cfgB, "RAY", Instrumentation{}); err != nil {
			t.Fatal(err)
		}
		if len(parked) != 1 || !slices.Equal(idleSims(), parked) {
			t.Fatalf("dual=%v: job B did not run on the simulator job A parked", dual)
		}
		if got := snap(a); !reflect.DeepEqual(got, want) {
			t.Errorf("dual=%v: job A's result changed while job B ran on its simulator", dual)
		}
	}
}
