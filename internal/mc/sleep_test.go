package mc

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
)

// TestSleepLockstep runs two MCs fed the same scripted request stream for
// 50k cycles over the whole characterization grid. The oracle is kept awake
// — the test zeroes its horizon before every tick, so it runs the whole
// tick every cycle the way the pre-sleep controller did — and the sleeper's
// full state vector must equal the oracle's after every cycle. The
// sleeper's invariant check runs every cycle too.
func TestSleepLockstep(t *testing.T) {
	cycles := 50_000
	if testing.Short() {
		cycles = 5_000
	}
	for _, c := range tickCases() {
		t.Run(c.key, func(t *testing.T) {
			t.Parallel()
			sleeper, oracle := newTickRig(c), newTickRig(c)
			slept := 0
			for i := 0; i < cycles; i++ {
				if err := sleeper.mc.CheckInvariants(sleeper.net.cycle); err != nil {
					t.Fatal(err)
				}
				if sleeper.net.cycle < sleeper.mc.idleUntil {
					slept++
				}
				oracle.mc.idleUntil = 0
				sleeper.step()
				oracle.step()
				if !slices.Equal(sleeper.state, oracle.state) {
					t.Fatalf("cycle %d: sleeping MC diverged from the always-awake oracle\n sleeper %v\n oracle  %v",
						i, sleeper.state, oracle.state)
				}
			}
			// Half the script is a request every ~97 cycles.
			if slept < cycles/10 {
				t.Errorf("MC slept only %d of %d ticks", slept, cycles)
			}
		})
	}
}

// TestSleepingTickAllocatesNothing: the early-out is the token refresh and
// a compare.
func TestSleepingTickAllocatesNothing(t *testing.T) {
	r := newTickRig(tickCases()[0])
	r.mc.Tick(0)
	if r.mc.idleUntil != math.MaxInt64 {
		t.Fatalf("an idle MC sleeps until %d, want forever", r.mc.idleUntil)
	}
	now := int64(1)
	if a := testing.AllocsPerRun(100, func() { r.mc.Tick(now); now++ }); a != 0 {
		t.Errorf("sleeping MC.Tick allocates %v per call", a)
	}
}

// TestSleepInvariants hands a sleeping MC work behind its back — without
// the wake Sink performs — and expects CheckInvariants to name the MC and
// what is now due.
func TestSleepInvariants(t *testing.T) {
	for _, m := range []struct {
		name   string
		mutate func(r *tickRig)
		want   string
	}{
		{"queue a reply", func(r *tickRig) { r.mc.outbox.Push(&packet.Packet{}) }, "replies wait in the outbox"},
		{"queue a DRAM retry", func(r *tickRig) { r.mc.retryDRAM.Push(&packet.Packet{}) }, "DRAM enqueues wait to retry"},
		{"enqueue a DRAM access", func(r *tickRig) { r.mc.dram.Enqueue(1, 0, r.net.cycle) }, "a DRAM issue or completion"},
		{"add an L2 wait", func(r *tickRig) {
			r.mc.inL2 = append(r.mc.inL2, pendingReply{readyAt: r.net.cycle + 1})
		}, "an L2 completion"},
	} {
		t.Run(m.name, func(t *testing.T) {
			r := newTickRig(tickCases()[0])
			// A sleeper with a finite horizon: some completion is pending.
			for r.net.cycle+1 >= r.mc.idleUntil || r.mc.idleUntil == math.MaxInt64 {
				if r.step(); r.net.cycle > 100_000 {
					t.Fatal("MC never slept towards a completion")
				}
			}
			if err := r.mc.CheckInvariants(r.net.cycle); err != nil {
				t.Fatalf("before the mutation: %v", err)
			}
			m.mutate(r)
			err := r.mc.CheckInvariants(r.net.cycle)
			if err == nil {
				t.Fatal("mutation not detected")
			}
			if !strings.Contains(err.Error(), "MC 0 asleep") || !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not name MC 0 and %q", err, m.want)
			}
		})
	}
}

// gateNet refuses every Inject while shut, and counts the calls.
type gateNet struct {
	noc.Interconnect
	shut  bool
	calls int
}

func (g *gateNet) Inject(*packet.Packet) bool {
	g.calls++
	return !g.shut
}

// TestBlockedOutboxSleeps: an MC whose reply was refused does not count the
// outbox as work — it sleeps to its L2/DRAM horizon (forever, here), passes
// its own invariant check, and offers the reply again only after
// WakeInject, which also wakes it.
func TestBlockedOutboxSleeps(t *testing.T) {
	net := &gateNet{shut: true}
	var gs stats.GPU
	m := New(0, 60, config.Default().Mem, net, &gs)
	now := int64(0)
	sink := m.Sink(func() int64 { return now })
	req := &packet.Packet{ID: 1, Type: packet.ReadRequest, Src: 3, Dst: 60, Flits: 1}
	if !sink(packet.Flit{Pkt: req, Head: true, Tail: true}) {
		t.Fatal("request refused by an empty MC")
	}
	tick := func(n int) {
		for i := 0; i < n; i++ {
			if err := m.CheckInvariants(now); err != nil {
				t.Fatal(err)
			}
			m.Tick(now)
			now++
		}
	}
	tick(2000)
	if net.calls != 1 || m.Refused() == nil || m.idleUntil != math.MaxInt64 {
		t.Fatalf("after 2000 ticks against a shut network: %d Inject calls (want 1), refused front %v, asleep until %d (want forever)",
			net.calls, m.Refused(), m.idleUntil)
	}
	net.shut = false
	tick(100)
	if net.calls != 1 {
		t.Fatalf("the MC retried a refused Inject without a wake (%d calls)", net.calls)
	}
	m.WakeInject()
	if m.idleUntil != 0 {
		t.Fatalf("WakeInject left the MC asleep until %d", m.idleUntil)
	}
	tick(int(m.cfg.MCServicePeriod))
	if net.calls != 2 || m.Refused() != nil || m.QueueLen() != 0 {
		t.Fatalf("woken MC did not inject its reply: %d Inject calls, refused front %v, queue %d", net.calls, m.Refused(), m.QueueLen())
	}
	// Not refused, so a spurious wake leaves a sleeping MC asleep.
	tick(1)
	if asleep := m.idleUntil; asleep == 0 {
		t.Fatal("idle MC not asleep")
	} else if m.WakeInject(); m.idleUntil != asleep {
		t.Error("a spurious WakeInject woke an MC that was not refused")
	}
}
