package mc

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gpgpunoc/internal/packet"
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
