// Microbenchmarks bench/ does not carry: the full-system and bare-network
// cycle (GPUCycle, GPUCycleLarge, GPUCycleTelemetry, RouterStep — the ns/op
// CHANGES.md has quoted since PR 4) and five ablations of design choices
// DESIGN.md calls out, which report simulated IPC or latency as custom
// metrics. Per-figure regeneration times, result shapes and the cache, DRAM,
// workload and analyzer microbenchmarks live in bench/ (BENCHMARK.json) and
// in internal/experiments' tests; cmd/experiments regenerates the
// full-scale tables recorded in EXPERIMENTS.md.
package gpgpunoc_test

import (
	"context"
	"fmt"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/synthetic"
	"gpgpunoc/internal/vc"
	"gpgpunoc/internal/workload"
)

func runScheme(b *testing.B, cfg config.Config, bench string) gpu.Result {
	b.Helper()
	res, err := gpu.Run(context.Background(), cfg, bench, gpu.Instrumentation{})
	if err != nil {
		b.Fatal(err)
	}
	if res.Deadlocked {
		b.Fatalf("deadlock in ablation config")
	}
	return res
}

func ablationCfg() config.Config {
	cfg := config.Default()
	cfg.WarmupCycles = 1000
	cfg.MeasureCycles = 6000
	return cfg
}

// BenchmarkAblationVCDepth sweeps VC buffer depth on the baseline.
func BenchmarkAblationVCDepth(b *testing.B) {
	for _, depth := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationCfg()
				cfg.NoC.VCDepth = depth
				res := runScheme(b, cfg, "KMN")
				b.ReportMetric(res.IPC, "ipc")
			}
		})
	}
}

// BenchmarkAblationVCCount sweeps VCs/port under the split policy.
func BenchmarkAblationVCCount(b *testing.B) {
	for _, vcs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("vcs=%d", vcs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationCfg()
				cfg.NoC.VCsPerPort = vcs
				res := runScheme(b, cfg, "KMN")
				b.ReportMetric(res.IPC, "ipc")
			}
		})
	}
}

// BenchmarkAblationDRAMScheduler compares FCFS with FR-FCFS (the paper's
// related work [15] argues in-order suffices; quantify it here).
func BenchmarkAblationDRAMScheduler(b *testing.B) {
	for _, fr := range []bool{false, true} {
		name := "fcfs"
		if fr {
			name = "frfcfs"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := ablationCfg()
				cfg.Mem.UseFRFCFS = fr
				res := runScheme(b, cfg, "BFS") // DRAM-bound benchmark
				b.ReportMetric(res.IPC, "ipc")
			}
		})
	}
}

// BenchmarkAblationRouterPipeline compares the 2-stage router against an
// aggressive single-cycle router and a slower 3-cycle one, via the
// synthetic harness.
func BenchmarkAblationRouterPipeline(b *testing.B) {
	for _, delay := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("stage1=%d", delay), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := synthetic.DefaultParams()
				p.InjectionRate = 0.10
				p.PipelineDelay = delay
				h, err := synthetic.New(p)
				if err != nil {
					b.Fatal(err)
				}
				st, dead := h.Run(1000, 6000)
				if dead {
					b.Fatal("deadlock")
				}
				b.ReportMetric(st.NetLatency[packet.Reply].Mean(), "reply_latency_cycles")
			}
		})
	}
}

// BenchmarkAblationInjectionRateCurve sweeps synthetic injection rates per
// routing algorithm: the latency/throughput curves behind Figure 7.
func BenchmarkAblationInjectionRateCurve(b *testing.B) {
	for _, rt := range config.Routings() {
		for _, rate := range []float64{0.05, 0.15, 0.40} {
			b.Run(fmt.Sprintf("%s/rate=%.2f", rt, rate), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p := synthetic.DefaultParams()
					p.Config.NoC.Routing = rt
					p.InjectionRate = rate
					h, err := synthetic.New(p)
					if err != nil {
						b.Fatal(err)
					}
					st, dead := h.Run(1000, 6000)
					if dead {
						b.Fatal("deadlock")
					}
					b.ReportMetric(st.Throughput(), "flits_per_cycle")
					b.ReportMetric(st.NetLatency[packet.Reply].Mean(), "reply_latency_cycles")
				}
			})
		}
	}
}

// BenchmarkRouterStep measures raw network stepping speed under load.
func BenchmarkRouterStep(b *testing.B) {
	cfg := config.Default().NoC
	n := noc.New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	for i := 0; i < 64; i++ {
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
	}
	r := rng.New(1)
	id := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 4; k++ {
			id++
			n.Inject(&packet.Packet{
				ID: id, Type: packet.ReadReply,
				Src: r.Intn(64), Dst: r.Intn(64),
				Flits: packet.LongFlits,
			})
		}
		n.Step()
	}
}

// BenchmarkGPUCycle measures full-system cycles per second, uninstrumented
// as every sweep job runs unless it asks for the sanitizer or telemetry.
func BenchmarkGPUCycle(b *testing.B) {
	cfg := config.Default()
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkGPUCycleLarge measures full-system cycles per second on a 16×16
// mesh (240 SMs + 16 MCs — 4× the paper's system).
func BenchmarkGPUCycleLarge(b *testing.B) {
	cfg := config.Default()
	cfg.NoC.Width, cfg.NoC.Height = 16, 16
	cfg.Mem.NumMCs = 16
	cfg.Core.NumSMs = 240
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkGPUCycleTelemetry measures the same full-system cycle path with
// the telemetry subsystem attached. Compared against BenchmarkGPUCycle it
// bounds the instrumented overhead; the disabled path (no telemetry)
// is BenchmarkGPUCycle itself, which now carries the nil probe checks.
func BenchmarkGPUCycleTelemetry(b *testing.B) {
	cfg := config.Default()
	sim, err := gpu.NewInstrumented(cfg, workload.MustGet("KMN"), gpu.Instrumentation{TelemetryEpoch: 1000})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}
