package smcore

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/vc"
	"gpgpunoc/internal/workload"
)

// rig holds one SM wired to a real network with an echo MC responder.
type rig struct {
	net    *noc.Network
	sm     *SM
	gs     stats.GPU
	nextID uint64
	cycle  int64

	requests []*packet.Packet // requests observed at MC nodes
}

func newRig(t *testing.T, prof workload.Profile) *rig {
	t.Helper()
	cfg := config.Default()
	nocCfg := cfg.NoC
	r := &rig{}
	r.net = noc.New(nocCfg, routing.MustNew(nocCfg.Routing), vc.MustNewPolicy(nocCfg))
	m := mesh.New(nocCfg.Width, nocCfg.Height)
	pl := placement.MustNew(cfg.Placement, m, cfg.Mem.NumMCs)
	r.sm = New(0, pl.Cores()[0], cfg.Core, cfg.Mem, prof, 42, r.net, pl, &r.gs, &r.nextID)
	r.net.SetSink(r.sm.Node, r.sm.Sink())
	r.net.SetInjectWake(r.sm.Node, r.sm.WakeInject)

	// Echo MCs: answer every tail immediately.
	for i := range pl.MCs {
		node := pl.MCNode(i)
		r.net.SetSink(node, func(f packet.Flit) bool {
			if f.Tail {
				r.requests = append(r.requests, f.Pkt)
				if f.Pkt.Type == packet.ReadRequest {
					rt := f.Pkt.Type.Reply()
					r.net.Inject(&packet.Packet{
						ID: 1 << 40, Type: rt,
						Src: f.Pkt.Dst, Dst: f.Pkt.Src,
						Flits:  packet.Length(rt),
						Access: f.Pkt.Access,
					})
				}
			}
			return true
		})
	}
	// Any other core tile absorbs strays.
	for _, c := range pl.Cores()[1:] {
		r.net.SetSink(c, func(packet.Flit) bool { return true })
	}
	return r
}

func (r *rig) step(n int) {
	for i := 0; i < n; i++ {
		r.sm.Tick(r.cycle)
		r.net.Step()
		r.cycle++
	}
}

func TestIssuesInstructions(t *testing.T) {
	r := newRig(t, workload.MustGet("CP"))
	r.step(1000)
	if r.gs.Instructions == 0 {
		t.Fatal("no instructions issued")
	}
	// CP is compute-bound: a lone SM should issue nearly every cycle.
	if ipc := float64(r.gs.Instructions) / 1000; ipc < 0.8 {
		t.Errorf("CP single-SM IPC = %v, want near 1", ipc)
	}
}

func TestGeneratesMemoryTraffic(t *testing.T) {
	r := newRig(t, workload.MustGet("KMN"))
	r.step(3000)
	if len(r.requests) == 0 {
		t.Fatal("memory-bound workload generated no network requests")
	}
	reads, writes := 0, 0
	for _, p := range r.requests {
		switch p.Type {
		case packet.ReadRequest:
			reads++
		case packet.WriteRequest:
			writes++
		default:
			t.Fatalf("SM emitted a %s", p.Type)
		}
		if p.Src != int(r.sm.Node) {
			t.Fatalf("request source %d, want %d", p.Src, r.sm.Node)
		}
		if p.Access.Addr%uint64(config.Default().Mem.LineBytes) != 0 {
			t.Fatalf("request address %#x not line aligned", p.Access.Addr)
		}
	}
	if reads == 0 {
		t.Error("no read requests")
	}
	if writes == 0 {
		t.Error("write-back traffic missing (dirty evictions)")
	}
}

func TestRequestsGoToHomeMC(t *testing.T) {
	cfg := config.Default()
	m := mesh.New(cfg.NoC.Width, cfg.NoC.Height)
	pl := placement.MustNew(cfg.Placement, m, cfg.Mem.NumMCs)
	r := newRig(t, workload.MustGet("BFS"))
	r.step(3000)
	for _, p := range r.requests {
		home := pl.HomeMC(p.Access.Addr, cfg.Mem.LineBytes)
		if p.Dst != int(pl.MCNode(home)) {
			t.Fatalf("request for %#x sent to node %d, home MC is node %d",
				p.Access.Addr, p.Dst, pl.MCNode(home))
		}
	}
}

func TestRepliesUnblockWarps(t *testing.T) {
	r := newRig(t, workload.MustGet("KMN"))
	r.step(4000)
	before := r.gs.Instructions
	if r.sm.Outstanding() < 0 {
		t.Fatal("negative outstanding count")
	}
	r.step(2000)
	if r.gs.Instructions == before {
		t.Error("SM stopped issuing; replies are not waking warps")
	}
	// MSHR entries must drain as fills arrive.
	r.step(4000)
	if r.sm.MSHR().Occupancy() > config.Default().Mem.L1MSHRs {
		t.Error("MSHR over capacity")
	}
}

// TestStallsWithoutReplies: if the MCs never answer, the SM wedges once
// every warp exhausts its run-ahead and the MSHR file fills — IPC goes to
// zero instead of fantasy execution.
func TestStallsWithoutReplies(t *testing.T) {
	cfg := config.Default()
	nocCfg := cfg.NoC
	var gs stats.GPU
	var nextID uint64
	net := noc.New(nocCfg, routing.MustNew(nocCfg.Routing), vc.MustNewPolicy(nocCfg))
	m := mesh.New(nocCfg.Width, nocCfg.Height)
	pl := placement.MustNew(cfg.Placement, m, cfg.Mem.NumMCs)
	prof := workload.MustGet("KMN")
	sm := New(0, pl.Cores()[0], cfg.Core, cfg.Mem, prof, 42, net, pl, &gs, &nextID)
	net.SetSink(sm.Node, sm.Sink())
	net.SetInjectWake(sm.Node, sm.WakeInject)
	for i := 0; i < m.NumNodes(); i++ {
		if mesh.NodeID(i) != sm.Node {
			net.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true }) // swallow, never reply
		}
	}
	var cycle int64
	for ; cycle < 30000; cycle++ {
		sm.Tick(cycle)
		net.Step()
	}
	before := gs.Instructions
	for ; cycle < 32000; cycle++ {
		sm.Tick(cycle)
		net.Step()
	}
	if gs.Instructions != before {
		t.Errorf("SM still issuing after %d unanswered loads; scoreboard broken", gs.MemRequests)
	}
	if gs.StallCycles == 0 {
		t.Error("no stall cycles recorded")
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (int64, int) {
		r := newRig(t, workload.MustGet("SRAD"))
		r.step(3000)
		return r.gs.Instructions, len(r.requests)
	}
	i1, q1 := run()
	i2, q2 := run()
	if i1 != i2 || q1 != q2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", i1, q1, i2, q2)
	}
}

func TestL1FiltersTraffic(t *testing.T) {
	// High-locality RED must miss L1 far less than random BFS.
	missRate := func(name string) float64 {
		r := newRig(t, workload.MustGet(name))
		r.step(5000)
		return r.gs.L1MissRate()
	}
	red, bfs := missRate("RED"), missRate("BFS")
	if red >= bfs {
		t.Errorf("L1 miss: RED %.2f >= BFS %.2f; locality has no effect", red, bfs)
	}
}

// TestInstructionFetchPath: the 2KB L1I filters fetches; a kernel larger
// than the I-cache produces steady-state fetch misses that travel the NoC,
// while a small kernel settles to all-hits after the first pass.
func TestInstructionFetchPath(t *testing.T) {
	fetchMisses := func(name string, cycles int) (int64, int64) {
		r := newRig(t, workload.MustGet(name))
		r.step(cycles)
		return r.gs.InstFetchMisses, r.gs.Instructions
	}
	bigMiss, bigInstr := fetchMisses("RAY", 8000) // 8KB kernel vs 2KB I$
	smallMiss, _ := fetchMisses("RED", 8000)      // 1KB kernel fits
	if bigMiss == 0 {
		t.Fatal("8KB kernel produced no fetch misses")
	}
	if bigInstr == 0 {
		t.Fatal("no instructions issued with fetch modelling on")
	}
	// The small kernel's misses are only the cold first pass: 1KB/128B = 8
	// lines per SM.
	if smallMiss > 16 {
		t.Errorf("1KB kernel produced %d fetch misses; should be cold-start only", smallMiss)
	}
	if bigMiss <= smallMiss {
		t.Errorf("big kernel misses (%d) should exceed small kernel's (%d)", bigMiss, smallMiss)
	}
}

// TestFetchRepliesWakeWarps: when fetch replies never return, every warp
// eventually parks on fetchWait and the SM stops issuing.
func TestFetchStallsWithoutFills(t *testing.T) {
	cfg := config.Default()
	nocCfg := cfg.NoC
	var gs stats.GPU
	var nextID uint64
	net := noc.New(nocCfg, routing.MustNew(nocCfg.Routing), vc.MustNewPolicy(nocCfg))
	m := mesh.New(nocCfg.Width, nocCfg.Height)
	pl := placement.MustNew(cfg.Placement, m, cfg.Mem.NumMCs)
	prof := workload.MustGet("RAY") // large kernel: every warp will miss
	sm := New(0, pl.Cores()[0], cfg.Core, cfg.Mem, prof, 42, net, pl, &gs, &nextID)
	net.SetSink(sm.Node, sm.Sink())
	net.SetInjectWake(sm.Node, sm.WakeInject)
	for i := 0; i < m.NumNodes(); i++ {
		if mesh.NodeID(i) != sm.Node {
			net.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return true })
		}
	}
	var cycle int64
	for ; cycle < 20000; cycle++ {
		sm.Tick(cycle)
		net.Step()
	}
	before := gs.Instructions
	for ; cycle < 22000; cycle++ {
		sm.Tick(cycle)
		net.Step()
	}
	if gs.Instructions != before {
		t.Error("SM issued instructions with every fetch unanswered")
	}
}

// TestSharedMemoryLatencyHiding: with 48 warps, shared-memory bank
// conflicts are fully hidden by TLP (the GPU's raison d'etre); with only 2
// warps the same conflicts show up as lost issue slots.
func TestSharedMemoryLatencyHiding(t *testing.T) {
	ipcWith := func(warps int) float64 {
		cfg := config.Default()
		cfg.Core.WarpsPerSM = warps
		nocCfg := cfg.NoC
		var gs stats.GPU
		var nextID uint64
		net := noc.New(nocCfg, routing.MustNew(nocCfg.Routing), vc.MustNewPolicy(nocCfg))
		m := mesh.New(nocCfg.Width, nocCfg.Height)
		pl := placement.MustNew(cfg.Placement, m, cfg.Mem.NumMCs)
		prof := workload.MustGet("NQU") // 20% shared ops, 1.5 mean conflicts
		sm := New(0, pl.Cores()[0], cfg.Core, cfg.Mem, prof, 42, net, pl, &gs, &nextID)
		net.SetSink(sm.Node, sm.Sink())
		net.SetInjectWake(sm.Node, sm.WakeInject)
		for i := 0; i < m.NumNodes(); i++ {
			node := mesh.NodeID(i)
			if node != sm.Node {
				net.SetSink(node, func(f packet.Flit) bool {
					if f.Tail && f.Pkt.Type == packet.ReadRequest {
						rt := f.Pkt.Type.Reply()
						net.Inject(&packet.Packet{ID: 1 << 40, Type: rt,
							Src: f.Pkt.Dst, Dst: f.Pkt.Src,
							Flits: packet.Length(rt), Access: f.Pkt.Access})
					}
					return true
				})
			}
		}
		for cycle := int64(0); cycle < 4000; cycle++ {
			sm.Tick(cycle)
			net.Step()
		}
		return float64(gs.Instructions) / 4000
	}
	many, few := ipcWith(48), ipcWith(2)
	t.Logf("NQU IPC: 48 warps = %.3f, 2 warps = %.3f", many, few)
	if many < 0.9 {
		t.Errorf("48 warps should hide bank-conflict latency: IPC %.3f", many)
	}
	if few >= many-0.05 {
		t.Errorf("2 warps (%.3f) should pay visibly for conflicts vs 48 (%.3f)", few, many)
	}
}

// sendNet accepts every Inject and keeps the packets in order.
type sendNet struct {
	noc.Interconnect
	sent []*packet.Packet
}

func (n *sendNet) Inject(p *packet.Packet) bool {
	n.sent = append(n.sent, p)
	return true
}

// TestRepliesBecomeRequests: the tail of every reply — instruction fill,
// data fill, write ack — releases its storage to the SM, whose next request
// is built in it with every field overwritten. The test answers each request
// after the tick that sent it, so a tick holds at most four unanswered: the
// two the previous tick built (a write-back and its load) and two it builds
// itself. The SM should draw no more than four fresh packets; a reply kind
// whose storage was dropped would show as one per reply of that kind.
func TestRepliesBecomeRequests(t *testing.T) {
	cfg := config.Default()
	pl := placement.MustNew(cfg.Placement, mesh.New(cfg.NoC.Width, cfg.NoC.Height), cfg.Mem.NumMCs)
	net := &sendNet{}
	var gs stats.GPU
	var nextID uint64
	sm := New(3, pl.Cores()[3], cfg.Core, cfg.Mem, workload.MustGet("RAY"), 1, net, pl, &gs, &nextID)
	sink := sm.Sink()

	released := map[*packet.Packet]bool{} // replies the sink took and no request has reused yet
	answered := map[string]int{}
	fresh := 0
	for now, i := int64(0), 0; now < 20_000; now++ {
		sm.Tick(now)
		for ; i < len(net.sent); i++ {
			req := net.sent[i]
			if released[req] {
				delete(released, req)
			} else {
				fresh++
			}
			if req.Sampled || req.ReqTimed || req.Class() != packet.Request {
				t.Fatalf("request %v keeps fields of the reply whose storage it reuses: %+v", req, *req)
			}
			rt := req.Type.Reply()
			rep := &packet.Packet{ID: req.ID | 1<<63, Type: rt, Src: req.Dst, Dst: req.Src,
				Flits: packet.Length(rt), Access: req.Access, ReqTimed: true, Sampled: true}
			for seq := 0; seq < rep.Flits; seq++ {
				sink(packet.Flit{Pkt: rep, Seq: seq, Head: seq == 0, Tail: seq == rep.Flits-1})
			}
			released[rep] = true
			switch {
			case req.Access.IsInst:
				answered["instruction fill"]++
			case rt == packet.ReadReply:
				answered["data fill"]++
			default:
				answered["write ack"]++
			}
		}
	}
	for _, kind := range []string{"instruction fill", "data fill", "write ack"} {
		if answered[kind] == 0 {
			t.Fatalf("no %s in 20,000 cycles: %v", kind, answered)
		}
	}
	t.Logf("%d requests, %d in fresh storage; replies answered: %v", len(net.sent), fresh, answered)
	if fresh > 4 {
		t.Errorf("%d of %d requests were built in fresh storage, want at most 4", fresh, len(net.sent))
	}
}
