// Whole-step lane suite: SM and MC ticks run on the kernel's lane workers,
// so everything a tick used to share — the packet-ID counter, the core-side
// counters, the in-flight tally — is sharded per endpoint or per lane. These
// tests pin the three hazards that sharding has to get right, through the
// exported surface a decorator or a benchmark sees.
package gpu_test

import (
	"context"
	"runtime"
	"slices"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/workload"
)

// forcePool gives the runtime a second P before construction, so a
// simulator built with Workers > 1 really gets lane workers on a one-core
// machine (results cannot depend on it; the race detector's view does).
func forcePool(t *testing.T) {
	t.Helper()
	if runtime.GOMAXPROCS(0) == 1 {
		old := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

// ejectedPkt is what the recorder keeps of an ejected packet. It copies the
// fields: the endpoint that ejects a packet reuses its storage.
type ejectedPkt struct {
	ID    uint64
	Class packet.Class
	SM    int // Access.SM: the issuing SM
}

// ejected records, per destination node, the packets whose tail flit the
// node's sink accepted. Each node's sink runs only on the lane owning the
// node, so the per-node slices have a single writer each.
type ejected [][]ejectedPkt

// tapSinks re-installs every endpoint's sink behind a recorder.
func tapSinks(sim *gpu.Simulator) ejected {
	rec := make(ejected, sim.Cfg.NoC.Width*sim.Cfg.NoC.Height)
	tap := func(node int, sink noc.Sink) {
		sim.Net.SetSink(mesh.NodeID(node), func(f packet.Flit) bool {
			ok := sink(f)
			if ok && f.Tail {
				rec[node] = append(rec[node], ejectedPkt{f.Pkt.ID, f.Pkt.Class(), f.Pkt.Access.SM})
			}
			return ok
		})
	}
	for _, sm := range sim.SMs {
		tap(int(sm.Node), sm.Sink())
	}
	for _, m := range sim.MCs {
		tap(int(m.Node), m.Sink(sim.Net.Cycle))
	}
	return rec
}

// ids flattens the record into a sorted multiset of packet IDs.
func (e ejected) ids() []uint64 {
	var out []uint64
	for _, pkts := range e {
		for _, p := range pkts {
			out = append(out, p.ID)
		}
	}
	slices.Sort(out)
	return out
}

// TestWholeStepPacketIDs: packet IDs come from per-SM streams, so the same
// packets carry the same IDs whichever goroutine ticks their SM — the
// multiset ejected at Workers=4 equals the one at Workers=1 — and the
// streams are disjoint: no two requests share an ID, a request's ID names
// its SM, and bit 63 is set on replies and only on replies.
func TestWholeStepPacketIDs(t *testing.T) {
	forcePool(t)
	for _, dual := range []bool{false, true} {
		name := "single"
		if dual {
			name = "dual"
		}
		t.Run(name, func(t *testing.T) {
			cfg := equivCfg()
			if dual {
				cfg.NoC.PhysicalSubnets = true
				cfg.NoC.VCsPerPort = 4
			}
			var runs [2][]uint64
			for i, workers := range []int{1, 4} {
				cfg.NoC.Workers = workers
				sim, err := gpu.New(cfg, workload.MustGet("KMN"))
				if err != nil {
					t.Fatal(err)
				}
				rec := tapSinks(sim)
				if _, err := sim.RunContext(context.Background()); err != nil {
					t.Fatal(err)
				}
				sim.Close()
				runs[i] = rec.ids()

				seen := map[uint64]bool{}
				requests := 0
				for _, pkts := range rec {
					for _, p := range pkts {
						if seen[p.ID] {
							t.Fatalf("workers=%d: packet ID %#x ejected twice", workers, p.ID)
						}
						seen[p.ID] = true
						reply := p.ID>>63 == 1
						if reply != (p.Class == packet.Reply) {
							t.Fatalf("workers=%d: %+v has bit 63 = %v", workers, p, reply)
						}
						if sm := int(p.ID&^(1<<63)>>40) - 1; sm != p.SM {
							t.Fatalf("workers=%d: %+v carries SM %d's ID stream, issued by SM %d", workers, p, sm, p.SM)
						}
						if !reply {
							requests++
						}
					}
				}
				if requests == 0 {
					t.Fatalf("workers=%d: no request ejected", workers)
				}
			}
			if !slices.Equal(runs[0], runs[1]) {
				t.Errorf("ejected packet IDs differ between Workers=1 (%d packets) and Workers=4 (%d)", len(runs[0]), len(runs[1]))
			}
		})
	}
}

// countingNet is the decorator pattern the benchmark and the flight tests
// use: it replaces Simulator.Net after construction and forwards everything
// but Step through the embedded interface.
type countingNet struct {
	noc.Interconnect
	steps int
}

func (c *countingNet) Step() {
	c.steps++
	c.Interconnect.Step()
}

// TestWholeStepWrappedNet: the tick dispatch goes through Simulator.Net, so
// a decorator embedding noc.Interconnect forwards it to the real kernel and
// a wrapped simulator at Workers=4 stays bit-identical to a bare serial one.
func TestWholeStepWrappedNet(t *testing.T) {
	forcePool(t)
	cfg := equivCfg()
	cfg.NoC.Workers = 1
	want := run(t, cfg, workload.MustGet("KMN"))

	cfg.NoC.Workers = 4
	sim, err := gpu.NewInstrumented(cfg, workload.MustGet("KMN"), gpu.Instrumentation{
		SanitizeEvery: 256, TelemetryEpoch: 400, FlightRecorder: 1 << 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	wrap := &countingNet{Interconnect: sim.Net}
	sim.Net = wrap
	got, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if wrap.steps == 0 {
		t.Fatal("the run never stepped through the decorator")
	}
	if g, w := digest(t, got), digest(t, want); g != w {
		t.Errorf("wrapped workers=4 run digest %s, bare serial run %s", g, w)
	}
}

// laneWorkers counts the kernel's worker goroutines alive in this process,
// by name, so goroutines other tests leave winding down cannot blur the
// count.
func laneWorkers() int {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	return strings.Count(string(buf), "noc.(*workerPool).worker(")
}

// settle waits for the worker count to reach want: a stopped worker signals
// its exit a few instructions before it is gone from the goroutine dump.
func settle(want int) int {
	n := laneWorkers()
	for i := 0; n != want && i < 1000; i++ {
		runtime.Gosched()
		n = laneWorkers()
	}
	return n
}

// TestWholeStepOnePoolPerSimulator: a simulator never runs more kernel
// goroutines than Ps — min(lanes, GOMAXPROCS) in all, the stepping one
// included — whether it drives one network or the two subnets of a Dual,
// which share one pool.
func TestWholeStepOnePoolPerSimulator(t *testing.T) {
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	if n := settle(0); n != 0 {
		t.Fatalf("%d lane workers of earlier tests still running", n)
	}
	for _, dual := range []bool{false, true} {
		cfg := config.Default()
		cfg.NoC.Workers = 4
		if dual {
			cfg.NoC.PhysicalSubnets = true
			cfg.NoC.VCsPerPort = 4
		}
		sim, err := gpu.New(cfg, workload.MustGet("KMN"))
		if err != nil {
			t.Fatal(err)
		}
		sim.Step()
		const want = 1 // min(4 lanes, 2 Ps) − 1
		if got := laneWorkers(); got != want {
			t.Errorf("dual=%v: Workers=4 on 2 Ps runs %d lane workers beside the stepping goroutine, want %d", dual, got, want)
		}
		sim.Close()
		if got := settle(0); got != 0 {
			t.Errorf("dual=%v: Close left %d lane workers running", dual, got)
		}
	}
}
