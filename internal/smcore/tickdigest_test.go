package smcore

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/digests"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/workload"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/tick.digests from the current build")

const tickDigestFile = "testdata/tick.digests"

// scriptNet is the interconnect an SM under characterization runs against.
// Everything it decides is a pure function of (cycle, packet): Inject
// refuses every packet for a quarter of each 512-cycle window (long enough
// to fill the 16-entry outbox) and a third of the packets otherwise, and an
// accepted request is answered through the SM's sink a fixed delay plus a
// per-packet jitter later. SMs call nothing but Inject on an Interconnect;
// anything else hits the nil embedded interface and panics. A refusal here
// ends with the clock, not with a drain, so the script has no inject wake to
// deliver: the rig calls WakeInject before every Tick instead — a spurious
// wake is legal — which is the SM that retries a refused Inject every cycle.
type scriptNet struct {
	noc.Interconnect
	cycle int64
	delay int64
	sent  []*packet.Packet           // accepted during the current tick
	due   map[int64][]*packet.Packet // arrival cycle -> requests to answer
}

func (n *scriptNet) Inject(p *packet.Packet) bool {
	if (n.cycle>>7)&3 == 3 || digests.Mix(uint64(n.cycle)*0x9E3779B97F4A7C15^p.ID)%3 == 0 {
		return false
	}
	n.sent = append(n.sent, p)
	return true
}

// tickRig is one SM on a scriptNet.
type tickRig struct {
	net    *scriptNet
	sm     *SM
	sink   noc.Sink
	gs     stats.GPU
	nextID uint64
	state  []int64 // the last step's state vector (see step)

	// fetchesSent counts the instruction fetches the SM has injected. With
	// the fetches still in its outbox it is the count the SM once kept
	// itself (stats.GPU's InstFetchMisses), which the digests include.
	fetchesSent int64
}

// trickle keeps every warp in a 90-cycle op between occasional loads: about
// half the cycles no warp is eligible and only time will change that.
var trickle = workload.Profile{
	Name: "TRICKLE", Suite: "synthetic",
	MemFraction: 0.03, Locality: 0.6, FootprintBytes: 1 << 20,
	RunAhead: 2, LongOpFraction: 1, LongOpLatency: 90,
}

type tickCase struct {
	key   string
	prof  workload.Profile
	seed  uint64
	mshrs int
	delay int64
}

// tickCases is the characterization grid: saturating, write-heavy,
// compute-bound and low-locality profiles, two whose kernels overflow the
// 2KB L1I (RAY 8KB, MUM 6KB), one with no kernel image at all (nil icache)
// and one whose warps mostly wait out 90-cycle ops (the SM idles on time
// alone, between occasional loads), each at three seeds, a starved and the Table 2 MSHR file, and a
// short and a long memory latency.
func tickCases() []tickCase {
	noImage := workload.MustGet("KMN")
	noImage.Name, noImage.KernelBytes = "KMN-noimage", 0
	profs := []workload.Profile{
		workload.MustGet("KMN"), workload.MustGet("RAY"), workload.MustGet("NQU"),
		workload.MustGet("BFS"), workload.MustGet("MUM"), noImage, trickle,
	}
	var cases []tickCase
	for _, prof := range profs {
		for _, seed := range []uint64{1, 77, 0xC0FFEE} {
			for _, mshrs := range []int{4, 32} {
				for _, delay := range []int64{20, 400} {
					cases = append(cases, tickCase{
						key:   fmt.Sprintf("%s/seed=%d/mshrs=%d/delay=%d", prof.Name, seed, mshrs, delay),
						prof:  prof,
						seed:  seed,
						mshrs: mshrs,
						delay: delay,
					})
				}
			}
		}
	}
	return cases
}

// newTickRig puts the SM New builds at index 3 of the Table 2 system on a
// scriptNet.
func newTickRig(c tickCase) *tickRig { return newTickRigAt(c, 3, false) }

// newTickRigAt is newTickRig at index idx; with slab set the SM is index idx
// of the whole system instead, every SM laid out by one Build, only idx ever
// ticked.
func newTickRigAt(c tickCase, idx int, slab bool) *tickRig {
	cfg := config.Default()
	cfg.Mem.L1MSHRs = c.mshrs
	pl := placement.MustNew(cfg.Placement, mesh.New(cfg.NoC.Width, cfg.NoC.Height), cfg.Mem.NumMCs)
	r := &tickRig{net: &scriptNet{delay: c.delay, due: map[int64][]*packet.Packet{}}}
	if slab {
		ids := make([]uint64, cfg.Core.NumSMs)
		slots := make([]Slot, cfg.Core.NumSMs)
		for i := range slots {
			slots[i] = Slot{Index: i, Node: pl.Cores()[i], Seed: c.seed, NextID: &ids[i]}
		}
		slots[idx].NextID = &r.nextID
		r.sm = Build(slots, cfg.Core, cfg.Mem, c.prof, r.net, pl, &r.gs)[idx]
	} else {
		r.sm = New(idx, pl.Cores()[idx], cfg.Core, cfg.Mem, c.prof, c.seed, r.net, pl, &r.gs, &r.nextID)
	}
	r.sink = r.sm.Sink()
	return r
}

// step runs one cycle the way the simulator does — tick, then the router
// phase delivering this cycle's replies through the sink — and leaves in
// r.state everything the tick path reads or writes: every warp's scheduling
// state, the GTO pointer, the outbox (length and front; the FIFO keeps
// order and every packet is recorded again when it injects, so this pins
// the contents), the counters, cache and MSHR state, the packet-ID
// counter, and the packets injected this cycle.
func (r *tickRig) step() {
	n := r.net
	n.sent = n.sent[:0]
	r.sm.WakeInject()
	r.sm.Tick(n.cycle)
	for _, req := range n.due[n.cycle] {
		rt := req.Type.Reply()
		rep := &packet.Packet{ID: req.ID | 1<<63, Type: rt, Src: req.Dst, Dst: req.Src,
			Flits: packet.Length(rt), Access: req.Access}
		for seq := 0; seq < rep.Flits; seq += max(rep.Flits-1, 1) {
			r.sink(packet.Flit{Pkt: rep, Seq: seq, Head: seq == 0, Tail: seq == rep.Flits-1})
		}
	}
	delete(n.due, n.cycle)
	for _, req := range n.sent {
		at := n.cycle + n.delay + int64(digests.Mix(req.ID)%8)
		n.due[at] = append(n.due[at], req)
		r.fetchesSent += b2i(req.Access.IsInst)
	}

	s := r.sm
	v := r.state[:0]
	for i := range s.warps {
		w := &s.warps[i]
		v = append(v, w.readyAt, int64(w.outstanding), b2i(w.stalled), b2i(w.fetchWait),
			int64(w.pc), int64(w.loopBase), int64(w.instrs))
	}
	fetching := map[uint64]bool{} // lines with an instruction fetch in flight
	for i := range s.warps {
		if w := &s.warps[i]; w.fetchWait {
			fetching[w.fetchLine] = true
		}
	}
	v = append(v, int64(s.greedy), int64(s.outbox.Len()), int64(len(fetching)))
	if s.outbox.Len() > 0 {
		v = append(v, int64(s.outbox.Front().ID), int64(s.outbox.Front().Type))
	}
	fetches := r.fetchesSent
	for i := 0; i < s.outbox.Len(); i++ {
		if s.outbox.At(i).Access.IsInst {
			fetches++
		}
	}
	g := &r.gs
	v = append(v, g.Instructions, g.MemRequests, g.L1Hits, g.L1Misses, fetches, g.StallCycles,
		s.l1.Hits, s.l1.Misses, int64(s.mshr.Occupancy()), int64(r.nextID))
	if s.icache != nil {
		v = append(v, s.icache.Hits, s.icache.Misses)
	}
	for _, p := range n.sent {
		v = append(v, int64(p.ID), int64(p.Type), int64(p.Access.Addr), b2i(p.Access.IsInst), n.cycle)
	}
	r.state = v
	n.cycle++
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func tickDigest(r *tickRig, cycles int) string {
	h := digests.New()
	for i := 0; i < cycles; i++ {
		r.step()
		h.Ints(r.state...)
	}
	return h.String()
}

// TestTickDigests pins SM.Tick and SM.Sink — GTO choice, fetch, the
// structural-stall replay, outbox drain, fills — cycle by cycle against
// digests committed from a build that re-evaluates every warp every cycle.
// A host-only change to the tick path must pass it unchanged.
func TestTickDigests(t *testing.T) {
	cases := tickCases()
	keys, got := make([]string, len(cases)), make([]string, len(cases))
	for i, c := range cases {
		keys[i], got[i] = c.key, tickDigest(newTickRig(c), 16000)
	}
	for _, msg := range digests.Check(tickDigestFile, *updateDigests, keys, got) {
		t.Error(msg)
	}
}

// TestTickDigestsSlabBuilt: the SMs one Build lays out for the whole Table 2
// system are the SMs New builds one at a time. Index 3 of the slab ticks to
// the committed digest of every seed-1, 20-cycle-delay case (each profile,
// both MSHR files), and every index ticks 2,000 cycles of KMN to the digest
// of the SM New builds at that index.
func TestTickDigestsSlabBuilt(t *testing.T) {
	raw, err := os.ReadFile(tickDigestFile)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, ln := range strings.Split(string(raw), "\n") {
		if key, dig, ok := strings.Cut(ln, " "); ok {
			want[key] = dig
		}
	}
	var kmn tickCase
	for _, c := range tickCases() {
		if c.seed != 1 || c.delay != 20 {
			continue
		}
		if got := tickDigest(newTickRigAt(c, 3, true), 16000); got != want[c.key] {
			t.Errorf("%s: SM 3 of a slab digest %s, committed %s", c.key, got, want[c.key])
		}
		if c.prof.Name == "KMN" && c.mshrs == 32 {
			kmn = c
		}
	}
	for idx := range config.Default().Core.NumSMs {
		if got, one := tickDigest(newTickRigAt(kmn, idx, true), 2000), tickDigest(newTickRigAt(kmn, idx, false), 2000); got != one {
			t.Errorf("%s: SM %d of a slab digest %s, built alone %s", kmn.key, idx, got, one)
		}
	}
}
