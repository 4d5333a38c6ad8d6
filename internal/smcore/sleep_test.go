package smcore

import (
	"math"
	"slices"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/workload"
)

// TestSleepLockstep runs two SMs built from one seed on twin scripted
// networks for 50k cycles over the whole characterization grid. The oracle
// is kept awake — the test zeroes its horizon before every tick, so it
// re-evaluates every warp every cycle the way the pre-sleep tick did — and
// the sleeper's full state vector must equal the oracle's after every
// cycle. The sleeper's invariant check runs every cycle too.
func TestSleepLockstep(t *testing.T) {
	cycles := 50_000
	if testing.Short() {
		cycles = 5_000
	}
	for _, c := range tickCases() {
		t.Run(c.key, func(t *testing.T) {
			t.Parallel()
			sleeper, oracle := newTickRig(c), newTickRig(c)
			for i := 0; i < cycles; i++ {
				if err := sleeper.sm.CheckInvariants(sleeper.net.cycle); err != nil {
					t.Fatal(err)
				}
				oracle.sm.idleUntil = 0
				sleeper.step()
				oracle.step()
				if !slices.Equal(sleeper.state, oracle.state) {
					t.Fatalf("cycle %d: sleeping SM diverged from the always-awake oracle\n sleeper %v\n oracle  %v",
						i, sleeper.state, oracle.state)
				}
			}
			if oracle.sm.sleptTicks != 0 {
				t.Fatalf("oracle slept %d ticks", oracle.sm.sleptTicks)
			}
			if c.prof.Name == "KMN" && c.mshrs == 4 && c.delay == 400 && sleeper.sm.sleptTicks < int64(cycles)/2 {
				t.Errorf("starved SM slept only %d of %d ticks", sleeper.sm.sleptTicks, cycles)
			}
		})
	}
}

// runUntil steps r until ok holds at a cycle boundary.
func runUntil(t *testing.T, r *tickRig, what string, ok func() bool) {
	t.Helper()
	for i := 0; i < 200_000; i++ {
		if ok() {
			return
		}
		r.step()
	}
	t.Fatalf("never reached: %s", what)
}

// TestSleepingTickAllocatesNothing: the early-out is a drain attempt, a
// compare and two increments.
func TestSleepingTickAllocatesNothing(t *testing.T) {
	r := newTickRig(tickCase{prof: workload.MustGet("KMN"), seed: 1, mshrs: 32, delay: 1 << 40})
	s := r.sm
	runUntil(t, r, "every warp blocked on memory, outbox drained", func() bool {
		return s.idleUntil == math.MaxInt64 && s.outbox.Len() == 0
	})
	before := s.sleptTicks
	now := r.net.cycle
	if a := testing.AllocsPerRun(100, func() { s.Tick(now); now++ }); a != 0 {
		t.Errorf("sleeping SM.Tick allocates %v per call", a)
	}
	if s.sleptTicks-before != 101 {
		t.Errorf("%d of 101 ticks took the early-out", s.sleptTicks-before)
	}
}

// TestSleepInvariants clears a sleeping SM's blocking cause behind its back
// — without the wake that Sink and the outbox drain perform — and expects
// CheckInvariants to name the SM and the cause.
func TestSleepInvariants(t *testing.T) {
	asleep := func(r *tickRig) bool { return r.net.cycle < r.sm.idleUntil }
	chosen := func(r *tickRig) *warp {
		if wi := r.sm.pick(r.net.cycle); wi >= 0 {
			return &r.sm.warps[wi]
		}
		return nil
	}
	for _, m := range []struct {
		name   string
		c      tickCase
		state  func(r *tickRig) bool // the sleeper to corrupt
		mutate func(t *testing.T, r *tickRig)
		want   string
	}{
		{
			name: "free an MSHR entry",
			c:    tickCase{prof: workload.MustGet("KMN"), seed: 1, mshrs: 4, delay: 400},
			state: func(r *tickRig) bool {
				w := chosen(r)
				return asleep(r) && w != nil && w.pending.Kind == workload.Load &&
					r.sm.mshr.Full() && r.sm.outbox.Len() == 0
			},
			mutate: func(t *testing.T, r *tickRig) {
				for _, reqs := range r.net.due {
					for _, req := range reqs {
						if req.Type == packet.ReadRequest && !req.Access.IsInst {
							r.sm.mshr.Fill(req.Access.Addr)
							return
						}
					}
				}
				t.Fatal("no data fill in flight")
			},
			want: "stalled load would issue",
		},
		{
			name: "pop the outbox",
			c:    tickCase{prof: workload.MustGet("RAY"), seed: 1, mshrs: 32, delay: 20},
			state: func(r *tickRig) bool {
				return asleep(r) && chosen(r) != nil && r.sm.outbox.Len() >= r.sm.outboxCap
			},
			mutate: func(t *testing.T, r *tickRig) { r.sm.outbox.Pop() },
			want:   "outbox",
		},
		{
			name: "pull a readyAt below the horizon",
			c:    tickCase{prof: trickle, seed: 1, mshrs: 32, delay: 20},
			state: func(r *tickRig) bool {
				return asleep(r) && chosen(r) == nil && r.sm.idleUntil < math.MaxInt64 && r.sm.idleUntil > r.net.cycle+1
			},
			mutate: func(t *testing.T, r *tickRig) {
				for i := range r.sm.warps {
					if w := &r.sm.warps[i]; w.readyAt == r.sm.idleUntil {
						w.readyAt = r.net.cycle + 1
						return
					}
				}
				t.Fatal("no warp sits on the horizon")
			},
			want: "readyAt comes due",
		},
		{
			name: "make a warp eligible",
			c:    tickCase{prof: trickle, seed: 1, mshrs: 32, delay: 20},
			state: func(r *tickRig) bool {
				return asleep(r) && chosen(r) == nil && r.sm.idleUntil < math.MaxInt64
			},
			mutate: func(t *testing.T, r *tickRig) {
				for i := range r.sm.warps {
					if w := &r.sm.warps[i]; w.readyAt == r.sm.idleUntil {
						w.readyAt = r.net.cycle
						return
					}
				}
				t.Fatal("no warp sits on the horizon")
			},
			want: "eligible and not stalled",
		},
	} {
		t.Run(m.name, func(t *testing.T) {
			r := newTickRig(m.c)
			runUntil(t, r, m.name, func() bool { return m.state(r) })
			if err := r.sm.CheckInvariants(r.net.cycle); err != nil {
				t.Fatalf("before the mutation: %v", err)
			}
			m.mutate(t, r)
			err := r.sm.CheckInvariants(r.net.cycle)
			if err == nil {
				t.Fatal("mutation not detected")
			}
			if !strings.Contains(err.Error(), "SM 3 asleep") || !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not name SM 3 and %q", err, m.want)
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

// TestRefusedDrainWaitsForWake: a refused outbox front is not offered again
// — however many ticks pass, whether or not the queue has space by now —
// until WakeInject; Refused reports the waiting packet meanwhile.
func TestRefusedDrainWaitsForWake(t *testing.T) {
	cfg := config.Default()
	pl := placement.MustNew(cfg.Placement, mesh.New(cfg.NoC.Width, cfg.NoC.Height), cfg.Mem.NumMCs)
	net := &gateNet{shut: true}
	var gs stats.GPU
	var nextID uint64
	sm := New(3, pl.Cores()[3], cfg.Core, cfg.Mem, workload.MustGet("KMN"), 1, net, pl, &gs, &nextID)

	now := int64(0)
	tick := func(n int) {
		for i := 0; i < n; i++ {
			sm.Tick(now)
			now++
		}
	}
	tick(500)
	if net.calls != 1 || sm.Refused() == nil || sm.Refused() != sm.outbox.Front() {
		t.Fatalf("after 500 ticks against a shut network: %d Inject calls (want 1), refused front %v", net.calls, sm.Refused())
	}
	net.shut = false
	tick(100)
	if net.calls != 1 {
		t.Fatalf("the SM retried a refused Inject without a wake (%d calls)", net.calls)
	}
	sm.WakeInject()
	tick(1)
	if net.calls == 1 || sm.Refused() != nil {
		t.Fatalf("woken SM did not retry: %d Inject calls, refused front %v", net.calls, sm.Refused())
	}
}
