package noc

import (
	"flag"
	"fmt"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/digests"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/vc"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/arbitration.digests from the current build")

const arbDigestFile = "testdata/arbitration.digests"

// arbVCs is the VC grid every arbitration-sensitive suite in this package
// walks: the paper's 2 and 4, the odd and single-VC corners, the benchmark
// ablation's 8, and the largest count the router supports.
var arbVCs = []int{1, 2, 3, 4, 6, 8, 12}

// arbCase is one point of the characterization grid: how to build the
// interconnect, under a key that names every dimension.
type arbCase struct {
	key   string
	build func() Interconnect
}

// arbNoC is deliberately small and shallow: 20 routers saturate within a
// few dozen cycles and 3-flit buffers make credit stalls routine.
func arbNoC(v int) config.NoC {
	cfg := config.Default().NoC
	cfg.Width, cfg.Height = 5, 4
	cfg.VCsPerPort, cfg.VCDepth = v, 3
	return cfg
}

// arbAssigner builds the named VC assigner for v VCs, or reports that the
// combination is one config.Validate rejects.
func arbAssigner(name string, cfg config.NoC) (vc.Assigner, bool) {
	v := cfg.VCsPerPort
	switch name {
	case "shared":
		cfg.VCPolicy = config.VCShared
	case "monopolized":
		cfg.VCPolicy = config.VCMonopolized
	case "split":
		cfg.VCPolicy = config.VCSplit
	case "asymmetric":
		cfg.VCPolicy = config.VCAsymmetric
		cfg.AsymmetricRequestVCs = max(1, v/3)
	case "partial":
		cfg.VCPolicy = config.VCPartialMonopolized
	case "partial-links":
		// The analysis-driven assigner the full system uses for partial
		// monopolizing, with a synthetic mixing predicate so neighbouring
		// links disagree about the class ranges.
		if v < 2 {
			return nil, false
		}
		return vc.LinkAware{Total: v, Mixed: func(l mesh.Link) bool { return (int(l.From)+int(l.Dir))%2 == 0 }}, true
	}
	pol, err := vc.NewPolicy(cfg)
	return pol, err == nil
}

func arbCases() []arbCase {
	var cases []arbCase
	for _, v := range arbVCs {
		for _, rt := range config.Routings() {
			for _, pd := range []int{1, 2} {
				for _, lp := range []int{1, 2} {
					v, rt, pd, lp := v, rt, pd, lp
					opts := []Option{WithPipelineDelay(pd), WithLinkPeriod(lp)}
					for _, pol := range []string{"shared", "split", "monopolized", "asymmetric", "partial", "partial-links"} {
						pol := pol
						if _, ok := arbAssigner(pol, arbNoC(v)); !ok {
							continue
						}
						cases = append(cases, arbCase{
							key: fmt.Sprintf("single/v=%d/%s/%s/pd=%d/lp=%d", v, pol, rt, pd, lp),
							build: func() Interconnect {
								cfg := arbNoC(v)
								asg, _ := arbAssigner(pol, cfg)
								return New(cfg, routing.MustNew(rt), asg, opts...)
							},
						})
					}
					if v%2 != 0 {
						continue // Validate rejects an odd VC count under physical subnets
					}
					cases = append(cases, arbCase{
						key: fmt.Sprintf("dual/v=%d/%s/pd=%d/lp=%d", v, rt, pd, lp),
						build: func() Interconnect {
							return NewDual(arbNoC(v), routing.MustNew(rt), opts...)
						},
					})
				}
			}
		}
	}
	return cases
}

// arbRefuses is the sinks' refusal schedule: a pure function of (node,
// cycle, packet), so every kernel and every worker count sees the same one,
// and — like an MC whose request queue is full while its reply path is not —
// a node can refuse one packet and take another in the same cycle, which is
// what makes SA's fall-through past a refusal observable.
func arbRefuses(node int, cycle int64, pkt uint64) bool {
	x := uint64(cycle)*0x9E3779B97F4A7C15 + uint64(node)*0xC2B2AE3D27D4EB4F + pkt*0x165667B19E3779F9
	x ^= x >> 29
	return x%3 == 0
}

// arbDigest drives one saturating many-to-few run and hashes, per cycle,
// every flit ejection as (packet, sequence, node, cycle) in node order plus
// the in-flight count, and at the end the statistics and every router's
// arbitration state. The invariant check runs after every cycle, which makes
// the grid double as the property test for the routers' redundant state
// (counters, request masks, pipeline-gate stamps) at every VC count and
// policy.
func arbDigest(t *testing.T, key string, ic Interconnect) string {
	const (
		width, nodes = 5, 20
		loadCycles   = 120
		tailCycles   = 30
	)
	ic.EnableStats(true)
	h := digests.New()
	var cycle int64
	// One record list per node: a node's sink runs only on the lane owning
	// the node, so each list has a single writer; the fold below is serial.
	ejected := make([][]int64, nodes)
	// Every packet driven, and which IDs delivered their tail: a packet
	// ejects at one node, so each flag has a single writer.
	pkts := make([]*packet.Packet, 0, loadCycles*5)
	delivered := make([]bool, loadCycles*5+1)
	for i := 0; i < nodes; i++ {
		node := i
		ic.SetSink(mesh.NodeID(i), func(f packet.Flit) bool {
			if arbRefuses(node, cycle, f.Pkt.ID) {
				return false
			}
			ejected[node] = append(ejected[node], int64(f.Pkt.ID), int64(f.Seq))
			if f.Tail {
				delivered[f.Pkt.ID] = true
			}
			return true
		})
	}
	r := rng.New(0xA7B1)
	id := uint64(0)
	for ; cycle < loadCycles+tailCycles; cycle++ {
		if cycle < loadCycles {
			for k := 0; k < 5; k++ {
				id++
				typ := packet.Type(r.Intn(int(packet.NumTypes)))
				src, dst := r.Intn(nodes), r.Intn(nodes)
				// Many-to-few-to-many: requests converge on the bottom
				// row, replies fan out from it.
				hot := nodes - width + r.Intn(width)
				if r.Intn(4) != 0 {
					if typ.Class() == packet.Request {
						dst = hot
					} else {
						src = hot
					}
				}
				p := &packet.Packet{ID: id, Type: typ, Src: src, Dst: dst, Flits: packet.Length(typ), CreatedAt: cycle, InjectedAt: -1}
				pkts = append(pkts, p)
				ic.Inject(p)
			}
		}
		ic.Step()
		if err := ic.CheckInvariants(); err != nil {
			t.Fatalf("%s: cycle %d: %v", key, cycle, err)
		}
		for node, recs := range ejected {
			for i := 0; i < len(recs); i += 2 {
				h.Ints(recs[i], recs[i+1], int64(node), cycle)
			}
			ejected[node] = recs[:0]
		}
		h.Ints(int64(ic.FlitsInFlight()))
	}
	fmt.Fprintf(h, "%v", legacyStats(ic.Stats(), pkts, delivered))
	switch n := ic.(type) {
	case *Network:
		n.hashArbState(h)
	case *Dual:
		n.request.hashArbState(h)
		n.reply.hashArbState(h)
	}
	return h.String()
}

// legacyNet is stats.Net as it was when the digests were written: it also
// counted injected packets and flits and ejected packets by type, and each
// class's creation-to-ejection latency. Formatted with %v it reads as that
// struct did.
type legacyNet struct {
	Enabled                                                      bool
	Mesh                                                         mesh.Mesh
	Cycles                                                       int64
	InjectedPackets, InjectedFlits, EjectedPackets, EjectedFlits [packet.NumTypes]int64
	LinkFlits                                                    [packet.NumClasses][]int64
	TotalLatency, NetLatency                                     [packet.NumClasses]stats.Sampler
}

// legacyStats recounts the retired counters from the packets the digest
// drove (statistics are on from its first cycle): a packet was injected
// once the network stamped InjectedAt over the -1 it was created with, and
// ejected once its tail was delivered.
func legacyStats(st *stats.Net, pkts []*packet.Packet, delivered []bool) legacyNet {
	l := legacyNet{Enabled: st.Enabled, Mesh: st.Mesh, Cycles: st.Cycles, EjectedFlits: st.EjectedFlits,
		LinkFlits: st.LinkFlits, NetLatency: st.NetLatency}
	for _, p := range pkts {
		if p.InjectedAt >= 0 {
			l.InjectedPackets[p.Type]++
			l.InjectedFlits[p.Type] += int64(p.Flits)
		}
		if delivered[p.ID] {
			l.EjectedPackets[p.Type]++
			l.TotalLatency[p.Class()].Add(p.EjectedAt - p.CreatedAt)
		}
	}
	return l
}

// hashArbState folds every router's allocator state into h: round-robin
// pointers, output-VC ownership and credits, and each input VC's occupancy,
// output VC and — when the VC is empty — routing state. An empty VC still
// routed is mid-packet: its head left and its body has yet to arrive. An
// occupied VC's front is routed by the time a visit reads it, whenever the
// kernel routes it, so its routing flag says when RC ran, not what it chose.
func (n *Network) hashArbState(h *digests.Hash) {
	for i := range n.routers {
		rt := &n.routers[i]
		for p := 0; p < mesh.NumPorts; p++ {
			h.Ints(int64(rt.vaPtr[p]), int64(rt.saVCPtr[p]), int64(rt.saPtr[p]))
			for v := range rt.in[p] {
				ivc := &rt.in[p][v]
				routed := int64(0)
				if ivc.routed && ivc.buf.len() == 0 {
					routed = 1 + int64(ivc.route)
				}
				h.Ints(int64(ivc.buf.len()), routed, int64(ivc.outVC))
			}
			for v := range rt.out[p].owner {
				h.Ints(int64(rt.out[p].owner[v]), int64(rt.out[p].credits[v]))
			}
		}
	}
}

// TestArbitrationDigests pins the router's arbitration — RC, VA round-robin
// and class-range eligibility, SA port and VC rotation, sink-refusal
// fall-through, credit timing — across the whole configuration grid, against
// digests committed from a known-good build. The
// system-level goldens only cover V=2 split/XY; a change that keeps those
// but reorders a grant at V=3 or under a link-aware policy fails here.
func TestArbitrationDigests(t *testing.T) {
	cases := arbCases()
	keys, got := make([]string, len(cases)), make([]string, len(cases))
	for i, c := range cases {
		keys[i], got[i] = c.key, arbDigest(t, c.key, c.build())
	}
	for _, msg := range digests.Check(arbDigestFile, *updateDigests, keys, got) {
		t.Error(msg)
	}
}
