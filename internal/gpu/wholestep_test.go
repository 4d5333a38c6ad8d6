// Whole-step suite: SM and MC ticks run inside the interconnect's Step, as
// its endpoint stage, so the packet-ID counter and the core-side counters
// are kept per endpoint. These tests pin what that has to get right, through
// the exported surface a decorator or a benchmark sees.
package gpu_test

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/workload"
)

// ejectedPkt is what the recorder keeps of an ejected packet. It copies the
// fields: the endpoint that ejects a packet reuses its storage.
type ejectedPkt struct {
	ID    uint64
	Class packet.Class
	SM    int // Access.SM: the issuing SM
}

// ejected records, per destination node, the packets whose tail flit the
// node's sink accepted.
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

// TestWholeStepPacketIDs: packet IDs come from per-SM streams, and the
// streams are disjoint: no two requests share an ID, a request's ID names
// its SM, and bit 63 is set on replies and only on replies.
func TestWholeStepPacketIDs(t *testing.T) {
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
			sim, err := gpu.New(cfg, workload.MustGet("KMN"))
			if err != nil {
				t.Fatal(err)
			}
			rec := tapSinks(sim)
			if _, err := sim.RunContext(context.Background()); err != nil {
				t.Fatal(err)
			}
			seen := map[uint64]bool{}
			requests := 0
			for _, pkts := range rec {
				for _, p := range pkts {
					if seen[p.ID] {
						t.Fatalf("packet ID %#x ejected twice", p.ID)
					}
					seen[p.ID] = true
					reply := p.ID>>63 == 1
					if reply != (p.Class == packet.Reply) {
						t.Fatalf("%+v has bit 63 = %v", p, reply)
					}
					if sm := int(p.ID&^(1<<63)>>40) - 1; sm != p.SM {
						t.Fatalf("%+v carries SM %d's ID stream, issued by SM %d", p, sm, p.SM)
					}
					if !reply {
						requests++
					}
				}
			}
			if requests == 0 {
				t.Fatal("no request ejected")
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
// a wrapped simulator stays bit-identical to a bare one.
func TestWholeStepWrappedNet(t *testing.T) {
	cfg := equivCfg()
	want := run(t, cfg, workload.MustGet("KMN"))

	sim, err := gpu.NewInstrumented(cfg, workload.MustGet("KMN"), gpu.Instrumentation{
		SanitizeEvery: 256, TelemetryEpoch: 400,
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.AttachFlight(1<<12, "")
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
		t.Errorf("wrapped run digest %s, bare run %s", g, w)
	}
}

// TestWholeStepOnePoolPerSimulator: a simulator steps on the calling
// goroutine alone — one network or the two subnets of a Dual — so once
// Step returns no goroutine of the process is inside package noc. (The
// name is kept from the lane-parallel kernel, whose worker pool it
// counted.)
func TestWholeStepOnePoolPerSimulator(t *testing.T) {
	for _, dual := range []bool{false, true} {
		cfg := config.Default()
		if dual {
			cfg.NoC.PhysicalSubnets = true
			cfg.NoC.VCsPerPort = 4
		}
		sim, err := gpu.New(cfg, workload.MustGet("KMN"))
		if err != nil {
			t.Fatal(err)
		}
		for c := 0; c < 100; c++ {
			sim.Step()
		}
		buf := make([]byte, 1<<20)
		if n := strings.Count(string(buf[:runtime.Stack(buf, true)]), "gpgpunoc/internal/noc."); n != 0 {
			t.Errorf("dual=%v: %d stack frames in package noc after Step returned", dual, n)
		}
	}
}
