// Package mc implements the memory-controller endpoint of the simulated
// GPGPU: each MC ejects request packets from the NoC, services them through
// its shared-L2 slice and DRAM channel (Table 2: 64KB 8-way L2 per MC,
// 120-cycle minimum L2 latency, 220-cycle minimum DRAM latency), and injects
// the matching reply packets.
//
// All queues are finite. A full reply path stalls request ejection, which is
// the backpressure chain that makes protocol deadlock expressible — and that
// the paper's VC partitioning rules must (and do) break.
package mc

import (
	"fmt"
	"strconv"

	"gpgpunoc/internal/cache"
	"gpgpunoc/internal/config"
	"gpgpunoc/internal/dram"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
)

// pendingReply is a serviced request waiting for its latency to elapse.
type pendingReply struct {
	readyAt int64
	reply   *packet.Packet
}

// MC is one memory controller plus its L2 slice and DRAM channel.
type MC struct {
	Node  mesh.NodeID
	Index int

	cfg  config.Mem
	net  noc.Interconnect
	l2   *cache.Cache
	dram *dram.DRAM

	queue     int // accepted requests whose replies are not yet injected
	inL2      []pendingReply
	dramWait  map[uint64]*packet.Packet // DRAM access id -> request awaiting fill
	retryDRAM packet.FIFO               // L2 misses waiting for DRAM queue space
	outbox    packet.FIFO
	free      packet.FreeList // the requests this MC answered: storage for its replies

	nextDRAMID uint64
	svcTokens  int // clock-domain throttle

	// idleUntil is the sleep horizon: every tick ends by recording its
	// nextEvent here — with nothing injectable and nothing to retry that is
	// the earliest L2 or DRAM completion — and until then Tick only
	// refreshes the service token. Servicing a request and the inject wake
	// after a refusal wake the controller by zeroing it. All three writers
	// run inside the interconnect's Step.
	idleUntil  int64
	sleptTicks int64 // ticks that took the early-out

	// injBlocked: the interconnect refused the outbox front. Queue space
	// grows only when the network drains this node's injection queue, so the
	// reply loop stops retrying — and nextEvent stops counting the outbox as
	// work — until the interconnect's inject wake (WakeInject).
	injBlocked bool

	gpu   *stats.GPU
	spans *obs.Spans

	// ReadsServed and WritesServed count serviced requests.
	ReadsServed, WritesServed int64
}

// New builds an MC at node for slice index idx: it allocates the
// controller's storage, then Reset sets its run state.
func New(idx int, node mesh.NodeID, cfg config.Mem, net noc.Interconnect, gpu *stats.GPU) *MC {
	dp := dram.DefaultParams()
	dp.Banks = cfg.DRAMBanksPerMC
	dp.RowBytes = cfg.RowBufferBytes
	dp.MinLatency = cfg.MinDRAMCycles
	dp.FRFCFS = cfg.UseFRFCFS
	m := &MC{
		Node:     node,
		Index:    idx,
		cfg:      cfg,
		net:      net,
		l2:       cache.New(cfg.L2BytesPerMC, cfg.L2Ways, cfg.LineBytes),
		dram:     dram.New(dp),
		dramWait: make(map[uint64]*packet.Packet),
		gpu:      gpu,
	}
	m.Reset(nil) // holds no packet, so release is never called
	return m
}

// Reset rewinds the controller to what New builds — empty queues, L2 slice
// and DRAM channel, zero counters, awake — keeping its storage. Every packet
// it holds, requests and the replies made for them, goes to release: the
// storage of an unfinished transaction belongs to the SM that began it. The
// caller zeroes the counter shard New was given.
func (m *MC) Reset(release func(*packet.Packet)) {
	m.l2.Reset()
	m.dram.Reset()
	for _, pr := range m.inL2 {
		release(pr.reply)
	}
	clear(m.inL2)
	m.inL2 = m.inL2[:0]
	for _, req := range m.dramWait { //noclint:determinism which packet's storage a later Get reuses is never observed
		release(req)
	}
	clear(m.dramWait)
	for _, q := range []*packet.FIFO{&m.retryDRAM, &m.outbox} {
		for q.Len() > 0 {
			release(q.Front())
			q.Pop()
		}
	}
	m.queue, m.nextDRAMID, m.svcTokens = 0, 0, 0
	m.idleUntil, m.sleptTicks, m.injBlocked = 0, 0, false
	m.ReadsServed, m.WritesServed = 0, 0
}

// AttachTelemetry registers this controller's probes on reg (nil is a
// no-op): queue depths and service counts as GaugeFuncs — read only when
// the epoch sampler fires, so the MC's hot path is untouched — plus the
// DRAM channel's own probe set.
func (m *MC) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	gauge := func(field string, fn func() int64) {
		reg.GaugeFunc(fmt.Sprintf("mc.%d.%s", m.Index, field), telemetry.Desc{
			Family: "noc_mc_" + field,
			Help:   "Memory-controller state.",
			Labels: []string{"mc", strconv.Itoa(m.Index)},
		}, fn)
	}
	gauge("queue_depth", func() int64 { return int64(m.queue) })
	gauge("outbox", func() int64 { return int64(m.outbox.Len()) })
	gauge("dram_retry", func() int64 { return int64(m.retryDRAM.Len()) })
	gauge("l2_wait", func() int64 { return int64(len(m.inL2)) })
	gauge("reads_served", func() int64 { return m.ReadsServed })
	gauge("writes_served", func() int64 { return m.WritesServed })
	m.dram.AttachTelemetry(reg, m.Index)
}

// SetSpans installs the span collector (nil disables span tracing): the MC
// records L2 lookup, DRAM queue/issue/completion, and reply-creation events
// for sampled requests, and links each reply to its request's trace. The
// DRAM issue hook is installed only when spans are on, so an untraced
// channel pays nothing.
func (m *MC) SetSpans(sp *obs.Spans) {
	m.spans = sp
	if sp == nil {
		m.dram.SetIssueHook(nil)
		return
	}
	m.dram.SetIssueHook(func(id uint64, bank int, rowHit bool, now int64) {
		if req := m.dramWait[id]; req != nil && req.Sampled {
			m.spans.DRAMIssue(req, int(m.Node), bank, rowHit, now)
		}
	})
}

// L2 exposes the cache for inspection in tests and reports.
func (m *MC) L2() *cache.Cache { return m.l2 }

// DRAM exposes the channel for inspection.
func (m *MC) DRAM() *dram.DRAM { return m.dram }

// QueueLen returns occupied request-queue slots.
func (m *MC) QueueLen() int { return m.queue }

// Sink returns the NoC ejection callback: requests are accepted per packet
// (head-gated on queue space) and serviced when the tail arrives.
func (m *MC) Sink(now func() int64) noc.Sink {
	return func(f packet.Flit) bool {
		if f.Head && f.Pkt.Class() == packet.Request {
			if m.queue >= m.cfg.MCRequestQueue {
				return false
			}
			m.queue++
		}
		if f.Tail {
			m.service(f.Pkt, now())
			m.idleUntil = 0 // new L2 or DRAM work
		}
		return true
	}
}

// localAddr collapses the global line address into this slice's local
// space: the MC owns every NumMCs-th line, so dividing the interleave
// factor out keeps all 64 L2 sets (and all DRAM rows) in use. Without this,
// line%k interleaving aliases every line into k of the sets and the slice
// thrashes at 1/k of its real capacity.
func (m *MC) localAddr(addr uint64) uint64 {
	lb := uint64(m.cfg.LineBytes)
	return (addr / lb / uint64(m.cfg.NumMCs)) * lb
}

// service runs the L2 lookup for a fully received request.
func (m *MC) service(req *packet.Packet, now int64) {
	isWrite := req.Type == packet.WriteRequest
	if isWrite {
		m.WritesServed++
	} else {
		m.ReadsServed++
	}
	res := m.l2.Access(m.localAddr(req.Access.Addr), isWrite)
	if m.spans != nil && req.Sampled {
		m.spans.MCService(req, int(m.Node), res.Hit, now)
	}
	if res.Eviction {
		// Dirty L2 victim: write back to DRAM. Bandwidth matters, the
		// completion does not (no reply); drop it on the floor if the DRAM
		// queue is full — the traffic model stays conservative for reads.
		m.nextDRAMID++
		m.dram.Enqueue(m.nextDRAMID<<1|1, res.VictimAddr, now)
	}
	if res.Hit {
		if m.gpu != nil {
			m.gpu.L2Hits++
		}
		m.inL2 = append(m.inL2, pendingReply{
			readyAt: now + int64(m.cfg.MinL2Cycles),
			reply:   m.makeReply(req, now),
		})
		return
	}
	if m.gpu != nil {
		m.gpu.L2Misses++
	}
	if !m.tryDRAM(req, now) {
		m.retryDRAM.Push(req)
	}
}

func (m *MC) tryDRAM(req *packet.Packet, now int64) bool {
	m.nextDRAMID++
	id := m.nextDRAMID << 1 // even ids carry replies
	if !m.dram.Enqueue(id, m.localAddr(req.Access.Addr), now) {
		m.nextDRAMID--
		return false
	}
	m.dramWait[id] = req
	if m.spans != nil && req.Sampled {
		m.spans.DRAMQueued(req, int(m.Node), now)
	}
	return true
}

// replyIDBit distinguishes reply packet IDs from request IDs: a reply
// carries its request's ID with the top bit set, which is unique (request
// IDs come from an incrementing counter and never reach 2^63) and makes
// the transaction recoverable from either packet.
const replyIDBit = uint64(1) << 63

// makeReply builds req's reply, then releases req's storage for a later
// one: never this one, which the network may still read (see noc.Sink).
func (m *MC) makeReply(req *packet.Packet, now int64) *packet.Packet {
	rt := req.Type.Reply()
	rep := m.free.Get(packet.Packet{
		ID:        req.ID | replyIDBit,
		Type:      rt,
		Src:       int(m.Node),
		Dst:       req.Src,
		Flits:     packet.Length(rt),
		Access:    req.Access,
		CreatedAt: now,
		// Carry the request's timestamps so telemetry can decompose the
		// transaction's end-to-end latency at reply ejection.
		ReqCreatedAt:  req.CreatedAt,
		ReqInjectedAt: req.InjectedAt,
		ReqEjectedAt:  req.EjectedAt,
		ReqTimed:      true,
	})
	if m.spans != nil && req.Sampled {
		m.spans.LinkReply(req, rep, now)
	}
	m.free.Put(req)
	return rep
}

// nextEvent returns the earliest cycle at or after now at which Tick could
// do observable work: now itself when replies wait to inject (for a token,
// not for queue space: a refused outbox is WakeInject's to restart) or DRAM
// enqueues wait to retry, otherwise the earliest L2 or DRAM completion, or
// math.MaxInt64 for an idle controller. Ticks strictly before the returned
// cycle change nothing except the service-token refresh, which Tick does
// before its sleep check — that is what makes sleeping until then exact.
func (m *MC) nextEvent(now int64) int64 {
	if m.injectable() || m.retryDRAM.Len() > 0 {
		return now
	}
	h := m.dram.NextEvent(now)
	for _, pr := range m.inL2 {
		if pr.readyAt < h {
			h = pr.readyAt
		}
	}
	return h
}

// injectable reports replies in the outbox that the interconnect has not
// refused: the reply loop's work, given a service token.
func (m *MC) injectable() bool { return m.outbox.Len() > 0 && !m.injBlocked }

// WakeInject is the MC's inject wake (noc.Interconnect.SetInjectWake): the
// network freed space in this node's injection queue after refusing the
// outbox front, so the controller wakes and the next Tick retries it. It
// runs inside the interconnect's Step. Calling it spuriously is
// harmless — a driver that knows nothing of wakes calls it before every
// Tick and gets the polling MC; an MC that was not refused stays asleep.
func (m *MC) WakeInject() {
	if m.injBlocked {
		m.injBlocked = false
		m.idleUntil = 0
	}
}

// Refused returns the outbox front the interconnect refused and has not yet
// made room for, nil if the MC is not waiting on injection space. The gpu
// sanitizer checks it against the queue's actual space.
func (m *MC) Refused() *packet.Packet {
	if !m.injBlocked {
		return nil
	}
	return m.outbox.Front()
}

// CheckInvariants validates the sleep state at the cycle boundary before
// Tick(now), side-effect free: if that tick would take the early-out,
// nextEvent — recomputed from the queues, the L2 waits and the DRAM channel
// — must still lie at or beyond the horizon. The gpu sanitizer samples it
// next to the interconnect's own check.
func (m *MC) CheckInvariants(now int64) error {
	if now >= m.idleUntil {
		return nil
	}
	e := m.nextEvent(now)
	if e >= m.idleUntil {
		return nil
	}
	cause := "an L2 completion"
	switch {
	case m.injectable():
		cause = "replies wait in the outbox"
	case m.retryDRAM.Len() > 0:
		cause = "DRAM enqueues wait to retry"
	case m.dram.NextEvent(now) == e:
		cause = "a DRAM issue or completion"
	}
	return fmt.Errorf("mc: MC %d asleep until cycle %d at cycle %d, but %s is due at cycle %d",
		m.Index, m.idleUntil, now, cause, e)
}

// SleptTicks returns how many Tick calls took the sleeping early-out.
func (m *MC) SleptTicks() int64 { return m.sleptTicks }

// Tick advances the MC one NoC cycle. It always returns true: an MC's sleep
// nearly always ends at a DRAM or L2 horizon, which no wake announces.
func (m *MC) Tick(now int64) bool {
	// Service-bandwidth throttle: the MC issues at most one reply every
	// MCServicePeriod NoC cycles, modelling the 924MHz L2/GDDR datapath
	// whose sustained bandwidth is on the order of one 32B flit per
	// 1400MHz NoC cycle (a 5-flit read reply every ~4-5 cycles). DRAM and
	// L2 completions are latency events and run every cycle; only reply
	// injection spends tokens. This bound is what makes the paper's
	// headline possible at all: with it, a single well-used egress link
	// per MC (bottom placement) carries the full service rate, so the
	// proposed bottom+YX+FM design is not structurally out-linked by
	// placements whose MCs have more ports.
	if m.cfg.MCServicePeriod <= 1 {
		m.svcTokens = 1
	} else if now%int64(m.cfg.MCServicePeriod) == 0 {
		m.svcTokens = 1
	}
	if now < m.idleUntil {
		m.sleptTicks++
		return true
	}

	m.dram.Tick(now)
	for _, id := range m.dram.Completed() {
		if id&1 == 1 {
			continue // write-back completion; no reply
		}
		req, ok := m.dramWait[id]
		if !ok {
			panic("mc: DRAM completion for unknown access")
		}
		delete(m.dramWait, id)
		if m.spans != nil && req.Sampled {
			m.spans.DRAMDone(req, int(m.Node), now)
		}
		m.outbox.Push(m.makeReply(req, now))
	}

	// Retry DRAM enqueues blocked on queue space.
	for m.retryDRAM.Len() > 0 && m.tryDRAM(m.retryDRAM.Front(), now) {
		m.retryDRAM.Pop()
	}

	// L2-latency completions.
	if len(m.inL2) > 0 {
		keep := m.inL2[:0]
		for _, pr := range m.inL2 {
			if pr.readyAt <= now {
				m.outbox.Push(pr.reply)
			} else {
				keep = append(keep, pr)
			}
		}
		m.inL2 = keep
	}

	// Inject replies, spending service tokens; free queue slots as replies
	// leave.
	for m.injectable() && m.svcTokens > 0 {
		if !m.net.Inject(m.outbox.Front()) {
			m.injBlocked = true
			break
		}
		m.outbox.Pop()
		m.queue--
		m.svcTokens--
	}

	// Sleep until the next event: that is the very next cycle (no sleep)
	// while injectable replies or DRAM retries are queued, else the earliest
	// L2 or DRAM completion — every tick before it would find the same
	// empty (or refused) queues.
	m.idleUntil = m.nextEvent(now + 1)
	return true
}
