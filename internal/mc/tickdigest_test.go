package mc

import (
	"flag"
	"fmt"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/digests"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
)

var updateDigests = flag.Bool("update", false, "rewrite testdata/tick.digests from the current build")

const tickDigestFile = "testdata/tick.digests"

// scriptNet is the interconnect an MC under characterization runs against:
// Inject refuses every reply for a quarter of each 256-cycle window (the
// outbox backs up, the request queue fills, heads are refused) and a
// quarter of the replies otherwise — a pure function of (cycle, packet).
// MCs call nothing but Inject on an Interconnect; anything else hits the
// nil embedded interface and panics. A refusal here ends with the clock, not
// with a drain, so the script has no inject wake to deliver: the rig calls
// WakeInject before every Tick instead — a spurious wake is legal — which is
// the MC that retries a refused Inject every cycle.
type scriptNet struct {
	noc.Interconnect
	cycle int64
	sent  []*packet.Packet // accepted during the current tick
}

func (n *scriptNet) Inject(p *packet.Packet) bool {
	if (n.cycle>>6)&3 == 3 || digests.Mix(uint64(n.cycle)*0x9E3779B97F4A7C15^p.ID)%4 == 0 {
		return false
	}
	n.sent = append(n.sent, p)
	return true
}

type tickCase struct {
	key      string
	seed     uint64
	writePct uint64
	period   int
	queue    int
	frfcfs   bool
}

// tickCases is the characterization grid: read-only, mixed and write-only
// request streams × the throttled and unthrottled service clock × a
// two-entry, the Table 2 and a 96-entry request queue (deeper than
// the DRAM queue, so enqueues back up into the retry FIFO) × both DRAM schedulers × two
// seeds.
func tickCases() []tickCase {
	var cases []tickCase
	for _, writePct := range []uint64{0, 30, 100} {
		for _, period := range []int{1, 4} {
			for _, queue := range []int{2, 32, 96} {
				for _, frfcfs := range []bool{false, true} {
					for _, seed := range []uint64{1, 77} {
						cases = append(cases, tickCase{
							key:      fmt.Sprintf("write=%d/period=%d/queue=%d/frfcfs=%t/seed=%d", writePct, period, queue, frfcfs, seed),
							seed:     seed,
							writePct: writePct,
							period:   period,
							queue:    queue,
							frfcfs:   frfcfs,
						})
					}
				}
			}
		}
	}
	return cases
}

// tickRig is one MC on a scriptNet plus the ejection port feeding its sink.
type tickRig struct {
	c      tickCase
	net    *scriptNet
	mc     *MC
	sink   noc.Sink
	gs     stats.GPU
	port   []packet.Flit // flits waiting at the ejection port, oldest first
	nextID uint64
	state  []int64 // the last step's state vector (see step)
}

func newTickRig(c tickCase) *tickRig {
	mem := config.Default().Mem
	mem.MCServicePeriod = c.period
	mem.MCRequestQueue = c.queue
	mem.UseFRFCFS = c.frfcfs
	r := &tickRig{c: c, net: &scriptNet{}}
	r.mc = New(0, 60, mem, r.net, &r.gs)
	r.sink = r.mc.Sink(func() int64 { return r.net.cycle })
	return r
}

// arrive queues this cycle's new request, if the script has one: 1024
// cycles of a request every other cycle on average (the controller
// saturates) alternate with 1024 cycles of one every ~97 (it idles between
// completions). Half the lines come from a hot set that fits the L2 slice,
// half from a region that misses to DRAM and evicts dirty victims.
func (r *tickRig) arrive() {
	const hotLines, wideLines = 256, 1 << 20
	cyc := uint64(r.net.cycle)
	x := digests.Mix(cyc*0xC2B2AE3D27D4EB4F ^ r.c.seed)
	gap := uint64(2)
	if (cyc>>10)&1 == 1 {
		gap = 97
	}
	if x%gap != 0 || len(r.port) > 40 {
		return
	}
	x = digests.Mix(x)
	typ := packet.ReadRequest
	if x%100 < r.c.writePct {
		typ = packet.WriteRequest
	}
	x = digests.Mix(x)
	line := (x >> 8) % wideLines
	if x&1 == 0 {
		line = (x >> 8) % hotLines
	}
	r.nextID++
	req := &packet.Packet{ID: r.nextID, Type: typ, Src: int((x >> 40) % 56), Dst: 60, Flits: packet.Length(typ),
		Access: packet.MemAccess{Addr: line * 64}, CreatedAt: r.net.cycle}
	r.port = append(r.port, packet.Flitize(req)...)
}

// step runs one cycle the way the simulator does — tick, then the router
// phase offering the ejection port's oldest flit to the sink (a refused
// head waits, as it would in the router) — and leaves in r.state
// everything the tick path reads or writes.
func (r *tickRig) step() {
	n := r.net
	n.sent = n.sent[:0]
	r.mc.WakeInject()
	r.mc.Tick(n.cycle)
	r.arrive()
	if len(r.port) > 0 && r.sink(r.port[0]) {
		r.port = r.port[1:]
	}

	m := r.mc
	v := append(r.state[:0], int64(m.queue), int64(m.svcTokens), int64(len(m.inL2)), int64(len(m.dramWait)),
		int64(m.retryDRAM.Len()), int64(m.outbox.Len()), int64(m.nextDRAMID), m.ReadsServed, m.WritesServed,
		r.gs.L2Hits, r.gs.L2Misses, m.l2.Hits, m.l2.Misses,
		int64(m.dram.QueueLen()), int64(m.dram.InFlight()), m.dram.RowHits, m.dram.RowMisses, m.dram.Served,
		int64(len(r.port)))
	for _, pr := range m.inL2 {
		v = append(v, pr.readyAt, int64(pr.reply.ID))
	}
	if m.retryDRAM.Len() > 0 {
		v = append(v, int64(m.retryDRAM.Front().ID))
	}
	if m.outbox.Len() > 0 {
		v = append(v, int64(m.outbox.Front().ID))
	}
	for _, p := range n.sent {
		v = append(v, int64(p.ID), int64(p.Type), int64(p.Dst), p.CreatedAt, n.cycle)
	}
	r.state = v
	n.cycle++
}

func tickDigest(c tickCase, cycles int) string {
	r := newTickRig(c)
	h := digests.New()
	for i := 0; i < cycles; i++ {
		r.step()
		h.Ints(r.state...)
	}
	return h.String()
}

// TestTickDigests pins MC.Tick and MC.Sink — the service-token clock, DRAM
// and L2 completions, the DRAM retry queue, reply injection under
// back-pressure, head-gated acceptance — cycle by cycle against digests
// committed from a build that runs the whole tick every cycle. A host-only
// change to the tick path must pass it unchanged.
func TestTickDigests(t *testing.T) {
	cases := tickCases()
	keys, got := make([]string, len(cases)), make([]string, len(cases))
	for i, c := range cases {
		keys[i], got[i] = c.key, tickDigest(c, 16000)
	}
	for _, msg := range digests.Check(tickDigestFile, *updateDigests, keys, got) {
		t.Error(msg)
	}
}
