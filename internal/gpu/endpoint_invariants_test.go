package gpu_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/smcore"
	"gpgpunoc/internal/workload"
)

// corruptingNet hands one sleeping MC work behind its back after a given
// number of steps: a DRAM write-back (odd id, so no reply is owed) enqueued
// straight into the channel, without the wake MC.Sink performs.
type corruptingNet struct {
	noc.Interconnect
	sim   *gpu.Simulator
	steps int
}

func (c *corruptingNet) Step() {
	c.Interconnect.Step()
	if c.steps++; c.steps == 10 {
		c.sim.MCs[5].DRAM().Enqueue(1, 0, c.Interconnect.Cycle())
	}
}

// lateReplyNet delivers one ReadReply to an SM behind the kernel's back: the
// SM's sink wrapper (see TestEndpointInvariants) takes the tail from the
// network and keeps it, and Step hands it to the SM's own sink at a cycle
// boundary while the SM is out of the tick walk — without the wake the
// kernel performs when a sink accepts a tail.
type lateReplyNet struct {
	noc.Interconnect
	sm   *smcore.SM
	held *packet.Packet
	done bool
}

func (l *lateReplyNet) Step() {
	l.Interconnect.Step()
	if l.held != nil && !l.done && !l.Interconnect.Ticking(l.sm.Node) {
		l.sm.Sink()(packet.Flit{Pkt: l.held, Seq: l.held.Flits - 1, Tail: true})
		l.done = true
	}
}

// TestEndpointInvariants: the sanitizer covers the endpoints' sleep state.
// Checked after every cycle, saturated, write-heavy and mostly-idle systems
// on one and two subnets, at one and four workers, never trip it; an MC
// that is asleep while its DRAM channel has work fails the run with an
// error naming the controller and the cause, and so does an endpoint still
// waiting for injection space after its queue drained, and an SM woken by a
// reply while out of the kernel's tick walk.
func TestEndpointInvariants(t *testing.T) {
	forcePool(t)
	for _, prof := range []workload.Profile{workload.MustGet("KMN"), workload.MustGet("RAY"), trickleProfile()} {
		for _, dual := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/dual=%t/workers=%d", prof.Name, dual, workers), func(t *testing.T) {
					cfg := equivCfg()
					cfg.NoC.PhysicalSubnets = dual
					cfg.NoC.Workers = workers
					sim, err := gpu.NewInstrumented(cfg, prof, gpu.Instrumentation{SanitizeEvery: 1})
					if err != nil {
						t.Fatal(err)
					}
					defer sim.Close()
					if _, err := sim.RunContext(context.Background()); err != nil {
						t.Fatal(err)
					}
				})
			}
		}
	}

	t.Run("corrupted", func(t *testing.T) {
		sim, err := gpu.NewInstrumented(equivCfg(), idleProfile(), gpu.Instrumentation{SanitizeEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		sim.Net = &corruptingNet{Interconnect: sim.Net, sim: sim}
		_, err = sim.RunContext(context.Background())
		if err == nil {
			t.Fatal("a sleeping MC with DRAM work pending passed the sanitizer")
		}
		for _, want := range []string{"sanitizer at cycle", "MC 5 asleep", "a DRAM issue or completion"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q lacks %q", err, want)
			}
		}
	})

	t.Run("lost tick wake", func(t *testing.T) {
		sim, err := gpu.NewInstrumented(equivCfg(), workload.MustGet("KMN"), gpu.Instrumentation{SanitizeEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer sim.Close()
		late := &lateReplyNet{Interconnect: sim.Net, sm: sim.SMs[50]}
		own := late.sm.Sink()
		sim.Net.SetSink(late.sm.Node, func(f packet.Flit) bool {
			if f.Tail && f.Pkt.Type == packet.ReadReply && !f.Pkt.Access.IsInst && late.held == nil {
				late.held = f.Pkt
				return true
			}
			return own(f)
		})
		sim.Net = late
		_, err = sim.RunContext(context.Background())
		if err == nil {
			t.Fatal("an SM woken by a reply outside the tick walk passed the sanitizer")
		}
		want := "SM 50 is out of the tick walk but not dormant"
		if !strings.Contains(err.Error(), "sanitizer at cycle") || !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	})

	// Free queue space without the wake: one endpoint's inject wake is
	// replaced by a no-op, so once its outbox front is refused it waits on
	// while the network drains its node's queue.
	for _, who := range []string{"SM 50", "MC 5"} {
		t.Run("lost drain wake/"+who, func(t *testing.T) {
			sim, err := gpu.NewInstrumented(equivCfg(), workload.MustGet("KMN"), gpu.Instrumentation{SanitizeEvery: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			node := sim.SMs[50].Node
			if who == "MC 5" {
				node = sim.MCs[5].Node
			}
			sim.Net.SetInjectWake(node, func() {})
			_, err = sim.RunContext(context.Background())
			if err == nil {
				t.Fatal("an endpoint waiting for space its queue already has passed the sanitizer")
			}
			want := fmt.Sprintf("%s waits for injection space node %d already has: the drain wake was lost", who, node)
			if !strings.Contains(err.Error(), "sanitizer at cycle") || !strings.Contains(err.Error(), want) {
				t.Errorf("error %q lacks %q", err, want)
			}
		})
	}
}
