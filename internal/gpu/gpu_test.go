package gpu

import (
	"context"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/workload"
)

// quickCfg shortens runs for unit testing; experiment-scale validation
// lives in the root bench suite and integration test.
func quickCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 6000
	return cfg
}

func TestBaselineRuns(t *testing.T) {
	res, err := Run(context.Background(), quickCfg(), "KMN", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked {
		t.Fatal("baseline deadlocked")
	}
	if res.IPC <= 0 {
		t.Fatalf("IPC = %v", res.IPC)
	}
	if res.GPU.MemRequests == 0 || res.Net.Throughput() == 0 {
		t.Error("no memory traffic simulated")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() Result {
		res, err := Run(context.Background(), quickCfg(), "SRAD", Instrumentation{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.IPC != b.IPC || a.GPU.Instructions != b.GPU.Instructions ||
		a.Net.EjectedFlits != b.Net.EjectedFlits {
		t.Errorf("identical configs diverged: IPC %v vs %v", a.IPC, b.IPC)
	}
}

func TestSeedChangesExecution(t *testing.T) {
	cfg := quickCfg()
	a, err := Run(context.Background(), cfg, "KMN", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(context.Background(), cfg, "KMN", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if a.GPU.Instructions == b.GPU.Instructions && a.Net.EjectedFlits == b.Net.EjectedFlits {
		t.Error("different seeds produced identical runs")
	}
}

func TestComputeBoundVsMemoryBound(t *testing.T) {
	cfg := quickCfg()
	cp, err := Run(context.Background(), cfg, "NQU", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	kmn, err := Run(context.Background(), cfg, "KMN", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	// 56 SMs at 1 instr/cycle: compute-bound IPC approaches 56.
	if cp.IPC < 40 {
		t.Errorf("compute-bound NQU IPC = %.1f, want near 56", cp.IPC)
	}
	if kmn.IPC > cp.IPC/2 {
		t.Errorf("memory-bound KMN IPC %.1f should be far below NQU %.1f", kmn.IPC, cp.IPC)
	}
}

// TestProposedSchemesImprove is the headline result at unit-test scale: on
// a memory-bound benchmark the paper's schemes order
// XY < YX < {YX monopolized}.
func TestProposedSchemesImprove(t *testing.T) {
	ipc := func(s core.Scheme) float64 {
		res, err := Run(context.Background(), s.Apply(quickCfg()), "KMN", Instrumentation{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			t.Fatalf("%s deadlocked", s.Label)
		}
		return res.IPC
	}
	xy := ipc(core.Baseline)
	yx := ipc(core.YXSplit)
	yxMono := ipc(core.YXMonopolized)
	t.Logf("KMN: XY=%.2f YX=%.2f YX-mono=%.2f", xy, yx, yxMono)
	if !(xy < yx && yx < yxMono) {
		t.Errorf("scheme ordering violated: XY=%.2f YX=%.2f YX-mono=%.2f", xy, yx, yxMono)
	}
	if yxMono/xy < 1.3 {
		t.Errorf("proposed design speedup %.2fx; expected a material gain on a memory-bound app", yxMono/xy)
	}
}

func TestRequestsBalanceReplies(t *testing.T) {
	res, err := Run(context.Background(), quickCfg(), "MM", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	reqs, reps := ejectedPackets(res.Net)
	if reqs == 0 {
		t.Fatal("no requests delivered")
	}
	if r := float64(reps) / float64(reqs); r < 0.7 || r > 1.3 {
		t.Errorf("reply/request packet ratio = %.2f, want ~1", r)
	}
}

// ejectedPackets counts the request and reply packets st ejected: each
// packet type has a fixed flit count.
func ejectedPackets(st *stats.Net) (reqs, reps int64) {
	for typ, flits := range st.EjectedFlits {
		n := flits / int64(packet.Length(packet.Type(typ)))
		if packet.Type(typ).Class() == packet.Request {
			reqs += n
		} else {
			reps += n
		}
	}
	return reqs, reps
}

func TestUnsafeConfigRejected(t *testing.T) {
	cfg := quickCfg()
	cfg.Placement = config.PlacementDiamond
	cfg.NoC.VCPolicy = config.VCMonopolized
	if _, err := New(cfg, workload.MustGet("CP")); err == nil {
		t.Fatal("diamond+XY+monopolized accepted without AllowUnsafe")
	}
	cfg.AllowUnsafe = true
	if _, err := New(cfg, workload.MustGet("CP")); err != nil {
		t.Fatalf("AllowUnsafe rejected: %v", err)
	}
}

// TestSharedVCsDeadlockEndToEnd: the full GPU (not just the synthetic
// harness) wedges with shared VCs on a mixing placement under a
// memory-bound workload, and the watchdog reports it.
func TestSharedVCsDeadlockEndToEnd(t *testing.T) {
	cfg := quickCfg()
	cfg.Placement = config.PlacementDiamond
	cfg.NoC.VCPolicy = config.VCShared
	cfg.Mem.MCRequestQueue = 4
	cfg.WarmupCycles = 30000 // give the wedge time to form and be detected
	cfg.AllowUnsafe = true
	sim, err := New(cfg, workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Error("shared VCs on diamond did not deadlock the full system")
	}
}

func TestAllSafeCombosRun(t *testing.T) {
	cfg := quickCfg()
	cfg.MeasureCycles = 2000
	cfg.WarmupCycles = 500
	for _, pl := range config.Placements() {
		for _, rt := range config.Routings() {
			c := cfg
			c.Placement = pl
			c.NoC.Routing = rt
			c.NoC.VCPolicy = config.VCSplit
			res, err := Run(context.Background(), c, "LPS", Instrumentation{})
			if err != nil {
				t.Errorf("%s+%s: %v", pl, rt, err)
				continue
			}
			if res.Deadlocked {
				t.Errorf("%s+%s deadlocked with split VCs", pl, rt)
			}
			if res.IPC <= 0 {
				t.Errorf("%s+%s: IPC %v", pl, rt, res.IPC)
			}
		}
	}
}

func TestPartialMonopolizingSafeEverywhere(t *testing.T) {
	cfg := quickCfg()
	cfg.MeasureCycles = 2000
	cfg.WarmupCycles = 500
	cfg.NoC.VCPolicy = config.VCPartialMonopolized
	for _, pl := range config.Placements() {
		c := cfg
		c.Placement = pl
		res, err := Run(context.Background(), c, "LPS", Instrumentation{})
		if err != nil {
			t.Errorf("%s: %v", pl, err)
			continue
		}
		if res.Deadlocked {
			t.Errorf("%s: analysis-driven partial monopolizing deadlocked", pl)
		}
	}
}

func TestDualNetworkRuns(t *testing.T) {
	cfg := quickCfg()
	cfg.NoC.PhysicalSubnets = true
	res, err := Run(context.Background(), cfg, "KMN", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Deadlocked || res.IPC <= 0 {
		t.Fatalf("dual network run failed: %+v", res)
	}
}

func TestInvalidInputsRejected(t *testing.T) {
	cfg := quickCfg()
	cfg.NoC.Routing = "spiral"
	if _, err := New(cfg, workload.MustGet("CP")); err == nil {
		t.Error("bad routing accepted")
	}
	if _, err := Run(context.Background(), quickCfg(), "NOT-A-BENCH", Instrumentation{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
	bad := workload.Profile{Name: "bad", FootprintBytes: 0, RunAhead: 1}
	if _, err := New(quickCfg(), bad); err == nil {
		t.Error("invalid profile accepted")
	}
}

// TestInstructionFetchEndToEnd: kernels larger than the L1I generate
// instruction read traffic that round-trips through the MCs' L2 slices.
func TestInstructionFetchEndToEnd(t *testing.T) {
	sim, err := New(quickCfg(), workload.MustGet("RAY")) // 8KB kernel vs 2KB L1I
	if err != nil {
		t.Fatal(err)
	}
	var fetches, data int64 // instruction and data requests delivered to the MCs
	for _, m := range sim.MCs {
		sink := m.Sink(sim.Net.Cycle)
		sim.Net.SetSink(m.Node, func(f packet.Flit) bool {
			ok := sink(f)
			if ok && f.Tail && f.Pkt.Class() == packet.Request {
				if f.Pkt.Access.IsInst {
					fetches++
				} else {
					data++
				}
			}
			return ok
		})
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if fetches == 0 {
		t.Error("no instruction fetch misses for a kernel 4x the L1I")
	}
	// Instruction lines are shared by all 56 SMs, so the slices keep them
	// hot and fetches must not dominate traffic.
	if fetches > data/2 {
		t.Errorf("fetch misses (%d) dominate data requests (%d); the hot-loop model is broken", fetches, data)
	}
	if res.IPC <= 0 {
		t.Fatal("no progress with fetch modelling")
	}
}

// TestWarmupBiasBounded: doubling the measurement window must not change
// IPC wildly — steady state is reached within the default warmup.
func TestWarmupBiasBounded(t *testing.T) {
	short := quickCfg()
	short.WarmupCycles, short.MeasureCycles = 3000, 8000
	long := short
	long.MeasureCycles = 16000
	a, err := Run(context.Background(), short, "KMN", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), long, "KMN", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if r := a.IPC / b.IPC; r < 0.85 || r > 1.15 {
		t.Errorf("IPC drifts with window length: %.3f vs %.3f", a.IPC, b.IPC)
	}
}
