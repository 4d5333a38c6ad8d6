package noc_test

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/workload"
)

// mesh16 is the 16x16 scale-up the lane benchmark runs: 240 SMs, 16 MCs.
func mesh16(cfg config.Config) config.Config {
	cfg.NoC.Width, cfg.NoC.Height = 16, 16
	cfg.Core.NumSMs, cfg.Mem.NumMCs = 240, 16
	return cfg
}

// cycleDigest hashes what one cycle boundary leaves observable: the fabric's
// in-flight count, every node's free injection-queue space and the folded
// statistics, and every endpoint's progress.
func cycleDigest(sim *gpu.Simulator) uint64 {
	h := fnv.New64a()
	st := sim.Net.Stats()
	space := make([]int, st.Mesh.NumNodes())
	for node := range space {
		space[node] = sim.Net.InjectSpace(mesh.NodeID(node))
	}
	fmt.Fprint(h, sim.Net.FlitsInFlight(), st.EjectedFlits, st.NetLatency, space)
	for _, sm := range sim.SMs {
		fmt.Fprint(h, sm.SleptTicks(), sm.MSHR().Occupancy())
	}
	for _, m := range sim.MCs {
		fmt.Fprint(h, m.SleptTicks(), m.ReadsServed, m.WritesServed, m.QueueLen())
	}
	return h.Sum64()
}

// randomCut draws a partition of height rows into lanes stripes: usually
// lanes-1 distinct boundaries anywhere, sometimes the two extremes where
// every lane but one holds a single row.
func randomCut(r *rng.Stream, lanes, height int) []int {
	cut := make([]int, lanes+1)
	cut[lanes] = height
	switch r.Intn(4) {
	case 0: // 1-row lanes at the top
		for i := 1; i < lanes; i++ {
			cut[i] = i
		}
	case 1: // 1-row lanes at the bottom
		for i := 1; i < lanes; i++ {
			cut[i] = height - lanes + i
		}
	default:
		perm := make([]int, height-1)
		r.Perm(perm)
		for i := 1; i < lanes; i++ {
			cut[i] = perm[i-1] + 1
		}
		slices.Sort(cut)
	}
	return cut
}

// runCuts steps a simulator cycle by cycle, re-cutting its lanes at random
// cycle boundaries (often on consecutive cycles) on top of the cuts Step
// schedules itself, checking the invariants after every cut and on each of
// the next 8 cycles, and returns the per-cycle digests and the final stats.
func runCuts(t *testing.T, cfg config.Config, cycles int) ([]uint64, string) {
	t.Helper()
	sim, err := gpu.New(cfg, workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	sim.Net.EnableStats(true)
	lanes := noc.Lanes(sim.Net)
	r := rng.New(0xc07 + uint64(lanes))
	digests := make([]uint64, 0, cycles)
	cuts, consecutive := 0, 0
	for c, watch, again := 0, 0, false; c < cycles; c++ {
		sim.Step()
		if lanes > 1 && (again || r.Intn(24) == 0) {
			if again {
				consecutive++
			}
			noc.SetCut(sim.Net, randomCut(r, lanes, cfg.NoC.Height))
			cuts++
			watch, again = 9, r.Intn(3) == 0
		}
		if watch > 0 {
			watch--
			if err := sim.Net.CheckInvariants(); err != nil {
				t.Fatalf("workers=%d cycle %d: %v", cfg.NoC.Workers, c, err)
			}
		}
		digests = append(digests, cycleDigest(sim))
	}
	if err := sim.Net.CheckInvariants(); err != nil {
		t.Fatalf("workers=%d after the run: %v", cfg.NoC.Workers, err)
	}
	if lanes > 1 && (cuts < 10 || consecutive == 0) {
		t.Fatalf("workers=%d: only %d cuts drawn, %d on consecutive cycles", cfg.NoC.Workers, cuts, consecutive)
	}
	return digests, fmt.Sprintf("%v", *sim.Net.Stats())
}

// TestRebalanceAnyCutSameBits: any cut, any time, same bits. The lanes of a
// pooled kernel are re-cut at random cycle boundaries — 1-row lanes and cuts
// on consecutive cycles included — and every cycle's observable state and the
// final statistics must equal the serial run's. Under -race this is also
// what watches a moved boundary's nodes change goroutines.
func TestRebalanceAnyCutSameBits(t *testing.T) {
	if runtime.GOMAXPROCS(0) == 1 { // give the pool its goroutines (see forcePool)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	cases := []struct {
		name   string
		cycles int
		cfg    func() config.Config
	}{
		{"mesh8", 700, config.Default},
		{"mesh16", 400, func() config.Config { return mesh16(config.Default()) }},
		{"xyyx-partial", 700, func() config.Config {
			cfg := config.Default()
			cfg.NoC.Routing, cfg.NoC.VCPolicy = config.RoutingXYYX, config.VCPartialMonopolized
			return cfg
		}},
		{"dual", 700, func() config.Config {
			cfg := config.Default()
			cfg.NoC.PhysicalSubnets, cfg.NoC.VCsPerPort = true, 4
			return cfg
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg()
			cfg.NoC.Workers = 1
			want, wantStats := runCuts(t, cfg, tc.cycles)
			for _, w := range []int{2, 3, 4} {
				cfg.NoC.Workers = w
				got, gotStats := runCuts(t, cfg, tc.cycles)
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("workers=%d: cycle %d digest %#x, serial run %#x", w, c, got[c], want[c])
					}
				}
				if gotStats != wantStats {
					t.Errorf("workers=%d: final statistics differ from the serial run", w)
				}
			}
		})
	}
}

// laneShares runs cfg for 2,048 cycles — the cycle of the run's fourth cut —
// and returns the heaviest lane's share of the last window's counted work
// under that cut, and under the equal stripes the kernel starts from.
func laneShares(t *testing.T, cfg config.Config, bench string) (cut, equal float64) {
	t.Helper()
	cfg = mesh16(cfg)
	cfg.NoC.Workers = 2
	sim, err := gpu.New(cfg, workload.MustGet(bench))
	if err != nil {
		t.Fatal(err)
	}
	defer sim.Close()
	for c := 0; c < 2048; c++ {
		sim.Step()
	}
	rows, bounds := noc.RowWork(sim.Net), noc.Cut(sim.Net)
	var total int64
	for _, w := range rows {
		total += w
	}
	share := func(lo, hi int) float64 {
		var sum int64
		for _, w := range rows[lo:hi] {
			sum += w
		}
		return float64(sum) / float64(total)
	}
	for i := range bounds[1:] {
		cut = max(cut, share(bounds[i], bounds[i+1]))
	}
	half := cfg.NoC.Height / 2
	return cut, max(share(0, half), share(half, cfg.NoC.Height))
}

// TestRebalanceBalancesCountedWork pins the cut's quality in counts alone, no
// clock: with the MCs in the bottom row equal stripes leave one of two lanes
// ~0.95 of the counted work and the counted cut must leave the heavier lane
// at most 0.60; on a near mirror-symmetric load (MCs top and bottom) the cut
// must not do worse than the equal stripes it started from.
func TestRebalanceBalancesCountedWork(t *testing.T) {
	for _, bench := range []string{"KMN", "NQU"} {
		cut, equal := laneShares(t, config.Default(), bench)
		t.Logf("%s: heaviest lane holds %.2f of the counted work, equal stripes %.2f", bench, cut, equal)
		if cut > 0.60 {
			t.Errorf("%s: the heaviest lane holds %.2f of the counted work, want at most 0.60", bench, cut)
		}
		if equal < 0.80 {
			t.Errorf("%s: equal stripes already leave the heaviest lane only %.2f: the pin tests nothing", bench, equal)
		}
	}
	cfg := config.Default()
	cfg.Placement = config.PlacementTopBottom
	cut, equal := laneShares(t, cfg, "KMN")
	t.Logf("top-bottom: heaviest lane holds %.2f of the counted work, equal stripes %.2f", cut, equal)
	if cut > equal {
		t.Errorf("top-bottom: the cut leaves the heaviest lane %.2f of the counted work, equal stripes left %.2f", cut, equal)
	}
}

// TestResetRestoresEqualStripes: Reset puts the lanes back on the equal
// stripes New cuts, whatever cut the previous run ended on, on one network
// and on both subnets of a Dual.
func TestResetRestoresEqualStripes(t *testing.T) {
	for _, dual := range []bool{false, true} {
		t.Run(fmt.Sprintf("dual=%t", dual), func(t *testing.T) {
			cfg := config.Default()
			cfg.NoC.Workers = 4
			if dual {
				cfg.NoC.PhysicalSubnets, cfg.NoC.VCsPerPort = true, 4
			}
			sim, err := gpu.New(cfg, workload.MustGet("KMN"))
			if err != nil {
				t.Fatal(err)
			}
			defer sim.Close()
			equal := noc.Cut(sim.Net)
			for i := range equal {
				if want := i * cfg.NoC.Height / 4; equal[i] != want {
					t.Fatalf("New cut the lanes at %v, want equal stripes", equal)
				}
			}
			for c := 0; c < 1100; c++ { // past the cuts at 256, 512 and 1024
				sim.Step()
			}
			if moved := noc.Cut(sim.Net); slices.Equal(moved, equal) {
				t.Fatalf("three cuts of a bottom-heavy run left the equal stripes %v: the test tests nothing", moved)
			}
			if err := sim.Reset(cfg, workload.MustGet("KMN")); err != nil {
				t.Fatal(err)
			}
			if got := noc.Cut(sim.Net); !slices.Equal(got, equal) {
				t.Errorf("Reset left the lanes cut at %v, New cuts %v", got, equal)
			}
			if err := sim.Net.CheckInvariants(); err != nil {
				t.Errorf("after Reset: %v", err)
			}
		})
	}
}
