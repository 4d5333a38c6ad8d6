package mc

import (
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/vc"
)

// harness wires one MC to a real network with a core endpoint at node 0
// collecting replies.
type harness struct {
	net     *noc.Network
	mc      *MC
	cycle   int64
	replies []*packet.Packet
}

func newHarness(t *testing.T, memCfg config.Mem) *harness {
	t.Helper()
	nocCfg := config.Default().NoC
	h := &harness{}
	h.net = noc.New(nocCfg, routing.MustNew(nocCfg.Routing), vc.MustNewPolicy(nocCfg))
	var gs stats.GPU
	h.mc = New(0, 63, memCfg, h.net, &gs)
	h.net.SetSink(63, h.mc.Sink(func() int64 { return h.cycle }))
	h.net.SetInjectWake(63, h.mc.WakeInject)
	for i := 0; i < 63; i++ {
		h.net.SetSink(mesh.NodeID(i), func(f packet.Flit) bool {
			if f.Tail {
				h.replies = append(h.replies, f.Pkt)
			}
			return true
		})
	}
	return h
}

func (h *harness) step() {
	h.mc.Tick(h.cycle)
	h.net.Step()
	h.cycle++
}

func (h *harness) request(id uint64, typ packet.Type, addr uint64) *packet.Packet {
	p := &packet.Packet{
		ID: id, Type: typ, Src: 0, Dst: 63,
		Flits:     packet.Length(typ),
		Access:    packet.MemAccess{Addr: addr},
		CreatedAt: h.cycle,
	}
	if !h.net.Inject(p) {
		panic("test injection refused")
	}
	return p
}

func TestReadRequestYieldsReadReply(t *testing.T) {
	h := newHarness(t, config.Default().Mem)
	h.request(1, packet.ReadRequest, 0x1000)
	for i := 0; i < 2000 && len(h.replies) == 0; i++ {
		h.step()
	}
	if len(h.replies) != 1 {
		t.Fatalf("got %d replies", len(h.replies))
	}
	r := h.replies[0]
	if r.Type != packet.ReadReply || r.Dst != 0 || r.Flits != packet.LongFlits {
		t.Errorf("reply = %+v", r)
	}
	if r.Access.Addr != 0x1000 {
		t.Errorf("reply addr = %#x", r.Access.Addr)
	}
}

func TestWriteRequestYieldsAck(t *testing.T) {
	h := newHarness(t, config.Default().Mem)
	h.request(1, packet.WriteRequest, 0x2000)
	for i := 0; i < 2000 && len(h.replies) == 0; i++ {
		h.step()
	}
	if len(h.replies) != 1 || h.replies[0].Type != packet.WriteReply {
		t.Fatalf("replies = %v", h.replies)
	}
	if h.replies[0].Flits != packet.ShortFlits {
		t.Errorf("write ack is %d flits, want 1", h.replies[0].Flits)
	}
	if h.mc.WritesServed != 1 {
		t.Errorf("writes served = %d", h.mc.WritesServed)
	}
}

// TestL2HitFasterThanMiss: the second read of a line round-trips much
// faster than the first (DRAM vs L2 latency).
func TestL2HitFasterThanMiss(t *testing.T) {
	cfg := config.Default().Mem
	h := newHarness(t, cfg)

	measure := func(id uint64, addr uint64) int64 {
		start := h.cycle
		h.request(id, packet.ReadRequest, addr)
		n := len(h.replies)
		for i := 0; i < 5000 && len(h.replies) == n; i++ {
			h.step()
		}
		return h.cycle - start
	}
	cold := measure(1, 0x4000)
	warm := measure(2, 0x4000)
	if warm >= cold {
		t.Errorf("L2 hit latency %d >= miss latency %d", warm, cold)
	}
	// The miss must reflect DRAM latency; the hit the L2 latency.
	if cold < int64(cfg.MinDRAMCycles) {
		t.Errorf("cold latency %d below DRAM minimum %d", cold, cfg.MinDRAMCycles)
	}
	if warm < int64(cfg.MinL2Cycles) {
		t.Errorf("warm latency %d below L2 minimum %d", warm, cfg.MinL2Cycles)
	}
}

// TestQueueBackpressure: with a tiny request queue, a burst beyond capacity
// parks requests in the network (ejection refused) rather than losing them,
// and all replies still arrive.
func TestQueueBackpressure(t *testing.T) {
	cfg := config.Default().Mem
	cfg.MCRequestQueue = 2
	h := newHarness(t, cfg)
	const n = 8
	for i := uint64(0); i < n; i++ {
		h.request(i+1, packet.ReadRequest, i*0x1000)
		h.step()
	}
	for i := 0; i < 20000 && len(h.replies) < n; i++ {
		h.step()
	}
	if len(h.replies) != n {
		t.Fatalf("got %d of %d replies under backpressure", len(h.replies), n)
	}
	if h.mc.QueueLen() != 0 {
		t.Errorf("queue not drained: %d", h.mc.QueueLen())
	}
}

// TestEveryRequestAnswered is the MC conservation property under load.
func TestEveryRequestAnswered(t *testing.T) {
	h := newHarness(t, config.Default().Mem)
	const n = 200
	sent := 0
	for i := 0; sent < n && i < 50000; i++ {
		if sent < n {
			p := &packet.Packet{
				ID: uint64(sent + 1), Type: packet.ReadRequest, Src: 0, Dst: 63,
				Flits:  1,
				Access: packet.MemAccess{Addr: uint64(sent) * 128 * 7},
			}
			if h.net.Inject(p) {
				sent++
			}
		}
		h.step()
	}
	for i := 0; i < 100000 && len(h.replies) < n; i++ {
		h.step()
	}
	if len(h.replies) != n {
		t.Fatalf("answered %d of %d requests", len(h.replies), n)
	}
}

func TestLocalAddrDecollision(t *testing.T) {
	cfg := config.Default().Mem
	var gs stats.GPU
	nocCfg := config.Default().NoC
	net := noc.New(nocCfg, routing.MustNew(nocCfg.Routing), vc.MustNewPolicy(nocCfg))
	m := New(0, 63, cfg, net, &gs)
	// Lines owned by MC 0 are 0, 8, 16, ... their local addresses must be
	// consecutive lines 0, 1, 2, ... so the full set index range is used.
	for i := uint64(0); i < 4; i++ {
		global := i * 8 * uint64(cfg.LineBytes)
		want := i * uint64(cfg.LineBytes)
		if got := m.localAddr(global); got != want {
			t.Errorf("localAddr(%#x) = %#x, want %#x", global, got, want)
		}
	}
}
