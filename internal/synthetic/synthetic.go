// Package synthetic drives the NoC with open-loop synthetic traffic:
// cores inject read/write requests at a configured rate toward
// uniformly-selected memory controllers, and MC endpoints echo each request
// back as the matching reply after a fixed service latency.
//
// This pure-network harness serves three purposes:
//   - validating the simulator against the analytic link-load model
//     (Equation 2 / Figure 4);
//   - producing classic latency-throughput curves per routing algorithm and
//     VC policy;
//   - demonstrating real protocol deadlock: with the unsafe shared-VC
//     policy on a class-mixing configuration (built under AllowUnsafe, like
//     any unsafe design), the harness wedges, and the watchdog reports it.
package synthetic

import (
	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/stats"
)

// Params configures a synthetic run: a design point and the traffic that
// runs on it.
type Params struct {
	// Config is the design point — mesh, placement, MC count, routing, VC
	// policy and count, subnets — and the seed. It goes through
	// config.Validate like every other entry point's, so an unsafe design
	// is refused unless Config.AllowUnsafe is set (it then wedges, and the
	// watchdog fires). Every tile that is not an MC injects, so New sets
	// Core.NumSMs to that remainder. The harness reads no cache, DRAM or
	// SM field, and takes its cycle counts as Run's arguments.
	Config config.Config

	// InjectionRate is the probability a core generates a request each
	// cycle (open loop).
	InjectionRate float64
	// ReadFrac is the fraction of requests that are reads (default mix
	// 0.75 reproduces the paper's reply:request flit ratio of 2).
	ReadFrac float64
	// MCLatency is the echo service latency in cycles.
	MCLatency int
	// MCQueue bounds both the pending-request and outgoing-reply queues at
	// each MC; finite queues are what make protocol deadlock expressible.
	MCQueue int
	// CoreBacklog bounds each core's not-yet-injected request backlog;
	// requests beyond it are dropped (open-loop sources do not stall).
	CoreBacklog int
	// PipelineDelay overrides the router's stage-one residency when > 0
	// (default 2, the two-stage router; 1 models a single-cycle router).
	PipelineDelay int
}

// DefaultParams returns a moderate-load configuration on the Table 2 system.
func DefaultParams() Params {
	return Params{
		Config:        config.Default(),
		InjectionRate: 0.05,
		ReadFrac:      0.75,
		MCLatency:     20,
		MCQueue:       16,
		CoreBacklog:   8,
	}
}

// mcState is one memory controller endpoint.
type mcState struct {
	node    mesh.NodeID
	pending []pendingReply // requests in service
	outbox  []*packet.Packet
	queue   int // packets currently accepted but not fully ejected
}

type pendingReply struct {
	readyAt int64
	reply   *packet.Packet
}

// coreState is one open-loop injector.
type coreState struct {
	node    mesh.NodeID
	backlog []*packet.Packet
	dropped int64
}

// Harness wires injectors and echo MCs to a network.
type Harness struct {
	Params Params
	Net    noc.Interconnect
	// Structure is the design point's shared core.Structure: mesh,
	// placement, routing, link usage and VC assigner.
	Structure *core.Structure

	cores []coreState
	mcs   []mcState
	rng   *rng.Stream
	next  uint64

	RepliesDelivered int64
	RequestsDropped  int64
}

// New builds the harness the way gpu.New builds a simulator: p.Config is
// validated — structure and, unless AllowUnsafe is set, protocol-deadlock
// safety — and the placement, routing and VC assigner come from the design
// point's shared core.Structure.
func New(p Params) (*Harness, error) {
	cfg := &p.Config
	cfg.Core.NumSMs = cfg.NoC.Width*cfg.NoC.Height - cfg.Mem.NumMCs
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st, err := core.StructureFor(*cfg)
	if err != nil {
		return nil, err
	}
	var opts []noc.Option
	if p.PipelineDelay > 0 {
		opts = append(opts, noc.WithPipelineDelay(p.PipelineDelay))
	}
	net := noc.NewInterconnect(cfg.NoC, st.Algorithm, st.Assigner, opts...)
	h := &Harness{Params: p, Net: net, Structure: st, rng: rng.New(cfg.Seed)}

	pl := st.Placement
	for _, id := range pl.Cores() {
		h.cores = append(h.cores, coreState{node: id})
	}
	for i := range pl.MCs {
		h.mcs = append(h.mcs, mcState{node: pl.MCNode(i)})
	}
	for ci := range h.cores {
		node := h.cores[ci].node
		net.SetSink(node, func(f packet.Flit) bool {
			if f.Tail {
				h.RepliesDelivered++
			}
			return true // cores always drain replies
		})
	}
	for mi := range h.mcs {
		mc := &h.mcs[mi]
		net.SetSink(mc.node, h.mcSink(mc))
	}
	return h, nil
}

// MustNew is New panicking on error.
func MustNew(p Params) *Harness {
	h, err := New(p)
	if err != nil {
		panic(err)
	}
	return h
}

// mcSink returns the ejection callback for one MC: accept a request packet
// only when both the service queue and the reply path have room.
func (h *Harness) mcSink(mc *mcState) noc.Sink {
	return func(f packet.Flit) bool {
		if f.Head {
			if mc.queue >= h.Params.MCQueue {
				return false // backpressure into the network
			}
			mc.queue++
		}
		if f.Tail {
			req := f.Pkt
			rt := req.Type.Reply()
			rep := &packet.Packet{
				ID: h.nextID(), Type: rt,
				Src: req.Dst, Dst: req.Src,
				Flits:     packet.Length(rt),
				Access:    req.Access,
				CreatedAt: h.Net.Cycle(),
			}
			mc.pending = append(mc.pending, pendingReply{
				readyAt: h.Net.Cycle() + int64(h.Params.MCLatency),
				reply:   rep,
			})
		}
		return true
	}
}

func (h *Harness) nextID() uint64 {
	h.next++
	return h.next
}

// Step advances endpoints and the network one cycle.
func (h *Harness) Step() {
	now := h.Net.Cycle()

	// Cores: generate and inject requests.
	for ci := range h.cores {
		c := &h.cores[ci]
		if h.rng.Bool(h.Params.InjectionRate) {
			typ := packet.WriteRequest
			if h.rng.Bool(h.Params.ReadFrac) {
				typ = packet.ReadRequest
			}
			mc := h.rng.Intn(len(h.mcs))
			p := &packet.Packet{
				ID: h.nextID(), Type: typ,
				Src: int(c.node), Dst: int(h.mcs[mc].node),
				Flits: packet.Length(typ), CreatedAt: now,
			}
			if len(c.backlog) < h.Params.CoreBacklog {
				c.backlog = append(c.backlog, p)
			} else {
				c.dropped++
				h.RequestsDropped++
			}
		}
		for len(c.backlog) > 0 && h.Net.Inject(c.backlog[0]) {
			c.backlog = c.backlog[1:]
		}
	}

	// MCs: move completed replies to the outbox, then inject.
	for mi := range h.mcs {
		mc := &h.mcs[mi]
		keep := mc.pending[:0]
		for _, pr := range mc.pending {
			if pr.readyAt <= now {
				mc.outbox = append(mc.outbox, pr.reply)
			} else {
				keep = append(keep, pr)
			}
		}
		mc.pending = keep
		// A request's MC-queue slot is held until its reply is injected, so
		// mc.queue jointly bounds in-service requests and waiting replies.
		for len(mc.outbox) > 0 && h.Net.Inject(mc.outbox[0]) {
			mc.outbox = mc.outbox[1:]
			mc.queue--
		}
	}

	h.Net.Step()
}

// Run simulates warmup cycles without statistics and then measure cycles
// with statistics, returning the network stats. It stops early and returns
// deadlocked=true if the watchdog fires.
func (h *Harness) Run(warmup, measure int) (st *stats.Net, deadlocked bool) {
	h.Net.EnableStats(false)
	for i := 0; i < warmup; i++ {
		h.Step()
		if i%512 == 511 && h.Net.Quiescent(256) {
			return h.Net.Stats(), true
		}
	}
	// The measurement window opens here: nothing counted during warmup is
	// in it.
	h.Net.EnableStats(true)
	for i := 0; i < measure; i++ {
		h.Step()
		if i%512 == 511 && h.Net.Quiescent(256) {
			return h.Net.Stats(), true
		}
	}
	st = h.Net.Stats()
	st.Cycles = int64(measure)
	return st, false
}
