package noc

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/telemetry"
)

// The cycle kernel's zero-allocation contract is checked here, on the real
// code, with testing.AllocsPerRun: the VC ring operations and the
// steady-state Step must not allocate once the amortized backing arrays have
// grown to their working size. Bench's alloc_bytes_per_cycle checks the same
// property over whole runs.

func TestRingOpsDoNotAllocate(t *testing.T) {
	r := newRing(8)
	fl := flit(0)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 8; i++ {
			r.push(fl, int64(i))
		}
		for i := 0; i < 8; i++ {
			_ = r.front()
			_ = r.frontArrived()
			_ = r.pop()
		}
	})
	if allocs != 0 {
		t.Errorf("ring push/front/pop allocated %.1f times per run, want 0", allocs)
	}
}

// allocNet is what the steady-state pin drives: a single network or a dual.
type allocNet interface {
	Inject(*packet.Packet) bool
	InjectSpace(mesh.NodeID) int
	SetSink(mesh.NodeID, Sink)
	Step()
	AttachTelemetry(*telemetry.Registry)
}

// TestSteadyStateStepDoesNotAllocate pins a zero-allocation Step for every
// kernel shape a run can take, with and without telemetry. The traffic mixes
// requests with request-timed replies, so telemetry's stall attribution, its
// end-of-cycle flush and the per-packet latency decomposition all run.
func TestSteadyStateStepDoesNotAllocate(t *testing.T) {
	dual := func(t *testing.T) allocNet {
		d := NewDual(config.Default().NoC, routing.MustNew(config.RoutingXY))
		d.EnableStats(true)
		return d
	}
	cases := []struct {
		name      string
		build     func(t *testing.T) allocNet
		telemetry bool
	}{
		{"serial", func(t *testing.T) allocNet { return newTestNet(t, config.RoutingXY, config.VCSplit) }, false},
		{"serial+telemetry", func(t *testing.T) allocNet { return newTestNet(t, config.RoutingXY, config.VCSplit) }, true},
		{"dual", dual, false},
		{"dual+telemetry", dual, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			n := c.build(t)
			if c.telemetry {
				n.AttachTelemetry(telemetry.NewRegistry())
			}
			m := config.Default().NoC
			nodes := m.Width * m.Height
			for i := 0; i < nodes; i++ {
				n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
			}

			// Pre-build every packet the run will inject so the traffic
			// source itself contributes no allocations to the measurement.
			pool := make([]*packet.Packet, 0, 8000)
			for i := 0; len(pool) < cap(pool); i++ {
				src := mesh.NodeID(i % nodes)
				dst := mesh.NodeID((i*7 + 13) % nodes)
				if src == dst {
					continue
				}
				typ := packet.ReadRequest
				if i%2 == 0 {
					typ = packet.ReadReply
				}
				p := mkPacket(uint64(i+1), typ, src, dst, 0)
				p.ReqTimed, p.ReqInjectedAt, p.ReqEjectedAt = typ == packet.ReadReply, 4, 40
				pool = append(pool, p)
			}
			next := 0
			drive := func(cycles int) {
				for c := 0; c < cycles; c++ {
					for s := 0; s < 8 && next < len(pool); s++ {
						p := pool[next]
						if n.InjectSpace(mesh.NodeID(p.Src)) < p.Flits || !n.Inject(p) {
							break
						}
						next++
					}
					n.Step()
				}
			}

			// Warmup grows the packet FIFOs and scratch arenas to
			// steady-state capacity.
			drive(400)
			before := next
			allocs := testing.AllocsPerRun(4, func() { drive(100) })
			if allocs != 0 {
				t.Errorf("steady-state Step allocated %.1f times per run, want 0", allocs)
			}
			if next == before || next == len(pool) {
				t.Errorf("injected %d of the pool's remaining %d packets in the window: it measured no steady load",
					next-before, len(pool)-before)
			}
		})
	}
}
