package noc

import (
	"fmt"
	"reflect"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/vc"
)

// TestStatsWindowIsProbeDifference: Stats' link flits are the measurement
// window cut out of the spine, the same counts the telemetry probes read
// from cycle 0. For any on/off sequence of EnableStats, every link and
// class must equal the sum over the open windows of probe(close) −
// probe(open), on one network and a Dual, from configurations carrying the
// retired Workers values 1 and 4; a window that never opens reports zero.
//
// It also holds the rest of Stats' contract. A twin driven alike but read
// at every cycle boundary ends with the same ejection counts, latency
// samplers and link flits as the network read once at the end. And the
// collector Stats returned before a Reset is its holder's: the next run
// counts into a new one and leaves it as it was.
func TestStatsWindowIsProbeDifference(t *testing.T) {
	const cycles = 1200
	for _, tc := range []struct {
		name    string
		toggles []int // cycles at which EnableStats flips, starting off
	}{
		{"opens at K", []int{300}},
		{"off-on-off-on", []int{200, 500, 800}},
		{"never opens", nil},
	} {
		for _, dual := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/dual=%t/workers=%d", tc.name, dual, workers), func(t *testing.T) {
					ic, prefixes := newWindowNet(t, dual, workers)
					twin, _ := newWindowNet(t, dual, workers)
					reg := telemetry.NewRegistry()
					ic.AttachTelemetry(reg)
					m := mesh.New(config.Default().NoC.Width, config.Default().NoC.Height)
					for i := 0; i < m.NumNodes(); i++ {
						ic.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
						twin.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
					}

					var want [packet.NumClasses][]int64
					for c := range want {
						want[c] = make([]int64, m.NumLinkSlots())
					}
					// add folds ±probe(now) into want: + at a close, − at an open.
					add := func(sign int64) {
						for c, counts := range linkProbes(t, reg, m, prefixes) {
							for i, v := range counts {
								want[c][i] += sign * v
							}
						}
					}
					r := rng.New(11)
					on, next := false, 0
					var id uint64
					for cycle := 0; cycle < cycles; cycle++ {
						if next < len(tc.toggles) && tc.toggles[next] == cycle {
							on = !on
							ic.EnableStats(on)
							twin.EnableStats(on)
							if on {
								add(-1)
							} else {
								add(+1)
							}
							next++
						}
						for k := 0; k < 2; k++ {
							id++
							typ := packet.ReadRequest
							if id%2 == 0 {
								typ = packet.ReadReply
							}
							src, dst := mesh.NodeID(r.Intn(m.NumNodes())), mesh.NodeID(r.Intn(m.NumNodes()))
							ic.Inject(mkPacket(id, typ, src, dst, int64(cycle)))
							twin.Inject(mkPacket(id, typ, src, dst, int64(cycle)))
						}
						ic.Step()
						twin.Step()
						twin.Stats()
					}
					if on {
						add(+1)
					}

					got := ic.Stats().LinkFlits
					var total, seen int64
					for _, l := range m.Links() {
						idx := m.LinkIndex(l)
						for c := packet.Class(0); c < packet.NumClasses; c++ {
							if got[c][idx] != want[c][idx] {
								t.Errorf("link %v class %s: Stats %d, probe difference %d", l, c, got[c][idx], want[c][idx])
							}
							total += got[c][idx]
						}
					}
					for _, counts := range linkProbes(t, reg, m, prefixes) {
						for _, v := range counts {
							seen += v
						}
					}
					if seen == 0 {
						t.Fatal("the probes saw no link traffic")
					}
					if (total == 0) != (len(tc.toggles) == 0) {
						t.Errorf("Stats counted %d link flits over %d toggles", total, len(tc.toggles))
					}

					once, each := ic.Stats(), twin.Stats()
					if once.EjectedFlits != each.EjectedFlits || once.NetLatency != each.NetLatency ||
						!reflect.DeepEqual(once.LinkFlits, each.LinkFlits) {
						t.Errorf("read at every boundary: ejected %v, latency %v; read once: ejected %v, latency %v",
							each.EjectedFlits, each.NetLatency, once.EjectedFlits, once.NetLatency)
					}

					held := ic.Stats()
					kept := copyNet(held)
					ic.Reset(nil)
					ic.EnableStats(true)
					for cycle := 0; cycle < 300; cycle++ {
						id++
						ic.Inject(mkPacket(id, packet.ReadReply, mesh.NodeID(r.Intn(m.NumNodes())), mesh.NodeID(r.Intn(m.NumNodes())), int64(cycle)))
						ic.Step()
					}
					if next := ic.Stats(); next == held || next.Throughput() == 0 {
						t.Fatalf("the run after Reset counted into the held collector (%t) or ejected nothing", next == held)
					}
					if !reflect.DeepEqual(*held, kept) {
						t.Errorf("the run after Reset wrote the collector Stats returned before it:\nbefore %+v\nafter  %+v", kept, *held)
					}
				})
			}
		}
	}
}

// newWindowNet builds the default network, or a Dual of it, from a
// configuration carrying the retired Workers value workers, with its
// probe-name prefixes.
func newWindowNet(t *testing.T, dual bool, workers int) (Interconnect, []string) {
	t.Helper()
	cfg := config.Default().NoC
	cfg.Workers = workers
	var ic Interconnect
	prefixes := []string{""}
	if dual {
		ic, prefixes = NewDual(cfg, routing.MustNew(cfg.Routing)), []string{"req.", "rep."}
	} else {
		ic = New(cfg, routing.MustNew(cfg.Routing), vc.MustNewPolicy(cfg))
	}
	return ic, prefixes
}

// copyNet returns a deep copy of s.
func copyNet(s *stats.Net) stats.Net {
	c := *s
	for i, w := range s.LinkFlits {
		c.LinkFlits[i] = append([]int64(nil), w...)
	}
	return c
}

// linkProbes reads every link's flit probes by class and mesh.LinkIndex,
// summed over the probe sets named by prefixes.
func linkProbes(t *testing.T, reg *telemetry.Registry, m mesh.Mesh, prefixes []string) [packet.NumClasses][]int64 {
	t.Helper()
	var out [packet.NumClasses][]int64
	for c := range out {
		out[c] = make([]int64, m.NumLinkSlots())
	}
	for _, l := range m.Links() {
		for c := packet.Class(0); c < packet.NumClasses; c++ {
			for _, p := range prefixes {
				v, ok := reg.Value(p + telemetry.LinkName(m, l) + "." + c.String() + ".flits")
				if !ok {
					t.Fatalf("no %s probe for link %v", p, l)
				}
				out[c][m.LinkIndex(l)] += v
			}
		}
	}
	return out
}

// TestStatsWindowAllocatesNothing: opening and closing the window and
// reading it use only the storage New allocated.
func TestStatsWindowAllocatesNothing(t *testing.T) {
	for _, dual := range []bool{false, true} {
		ic, _ := newWindowNet(t, dual, 1)
		if allocs := testing.AllocsPerRun(20, func() {
			ic.EnableStats(true)
			ic.Stats()
			ic.EnableStats(false)
			ic.Stats()
		}); allocs != 0 {
			t.Errorf("dual=%t: EnableStats and Stats allocated %.1f times per run", dual, allocs)
		}
	}
}
