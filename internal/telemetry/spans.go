// Span tracing: the per-packet probe family. A deterministic sample of
// packets records its lifecycle events, which WriteTrace writes into the
// run's series.jsonl and trace.json beside the epoch counters.
//
// Like every probe on the spine, span tracing is opt-in and nil-gated: a
// simulation without spans attached pays exactly one nil check per probe
// site.

package telemetry

import (
	"fmt"
	"math"

	"gpgpunoc/internal/packet"
)

// StallCause is what prevented a head flit from winning switch
// allocation: it indexes the network's stall tallies behind the
// net.stall.* counters and labels span stall events.
type StallCause uint8

// Stall causes.
const (
	StallVCAlloc StallCause = iota // no output VC granted yet
	StallCredit                    // output VC held but downstream has no credit
	StallRoute                     // output register busy or switch lost to another VC
	// NumStallCauses is the number of stall causes.
	NumStallCauses = 3
)

var stallNames = [NumStallCauses]string{"vcalloc", "credit", "route"}

// String returns the taxonomy name used by the net.stall.* probes.
func (c StallCause) String() string {
	if int(c) < len(stallNames) {
		return stallNames[c]
	}
	return fmt.Sprintf("StallCause(%d)", uint8(c))
}

// EventKind identifies one lifecycle event inside a packet trace.
type EventKind uint8

// Span event kinds, in rough lifecycle order.
const (
	EvCreated    EventKind = iota // packet queued at the source (CreatedAt)
	EvInjected                    // head flit entered the network (InjectedAt)
	EvVCGrant                     // VC allocation won at a router output
	EvHop                         // head flit crossed an inter-router link
	EvStall                       // switch allocation lost; Cause says why, N counts cycles
	EvEjected                     // tail flit left the network (EjectedAt)
	EvMCService                   // memory controller looked the request up in L2
	EvDRAMQueued                  // request entered the DRAM command queue
	EvDRAMIssue                   // DRAM issued the command (Bank, Hit = row hit)
	EvDRAMDone                    // DRAM burst completed
	EvReply                       // MC created the reply packet (Reply = its ID)
	// NumEventKinds is the number of span event kinds.
	NumEventKinds = 11
)

var eventNames = [NumEventKinds]string{
	"created", "injected", "vcgrant", "hop", "stall", "ejected",
	"mcservice", "dramqueued", "dramissue", "dramdone", "reply",
}

// String returns the lowercase event name used in exports.
func (k EventKind) String() string {
	if int(k) < len(eventNames) {
		return eventNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", uint8(k))
}

// Event is one lifecycle event of a sampled packet. Fields beyond Kind and
// Cycle are meaningful only for the kinds that document them; unused fields
// stay zero and are elided from JSON.
type Event struct {
	Kind  EventKind  `json:"k"`
	Cycle int64      `json:"c"`
	Node  int        `json:"n,omitempty"`     // router / MC node the event happened at
	To    int        `json:"to,omitempty"`    // hop, vcgrant: downstream node
	VC    int        `json:"vc,omitempty"`    // injected, vcgrant, hop: virtual channel
	Cause StallCause `json:"cause,omitempty"` // stall: why
	N     int64      `json:"x,omitempty"`     // stall: consecutive cycles charged here
	Bank  int        `json:"bank,omitempty"`  // dramissue: bank index
	Hit   bool       `json:"hit,omitempty"`   // mcservice: L2 hit; dramissue: row hit
	Reply uint64     `json:"reply,omitempty"` // reply: ID of the reply packet
}

// PacketTrace is the recorded journey of one sampled packet. Trace is the
// transaction ID — the request packet's ID — shared by the request and its
// reply so the pair reconstructs an end-to-end transaction.
type PacketTrace struct {
	ID    uint64 `json:"id"`
	Trace uint64 `json:"trace"`
	// Type is the packet type name ("read-request", ...). The JSON key is
	// "pkt_type", not "type": span-log lines embed this struct next to a
	// "type" record discriminator, which must not shadow it.
	Type   string  `json:"pkt_type"`
	Src    int     `json:"src"`
	Dst    int     `json:"dst"`
	Flits  int     `json:"flits"`
	Events []Event `json:"events"`
}

// Find returns the first event of the given kind and whether one exists.
func (t *PacketTrace) Find(k EventKind) (Event, bool) {
	for _, e := range t.Events {
		if e.Kind == k {
			return e, true
		}
	}
	return Event{}, false
}

// NetLatency returns the packet's in-network latency — head-flit injection
// to tail ejection, in cycles — and false while the packet is in flight.
func (t *PacketTrace) NetLatency() (int64, bool) {
	inj, okInj := t.Find(EvInjected)
	ej, okEj := t.Find(EvEjected)
	return ej.Cycle - inj.Cycle, okInj && okEj
}

// Hops returns the packet's hop events in order: the links (Node -> To) its
// head flit crossed so far.
func (t *PacketTrace) Hops() []Event {
	var hops []Event
	for _, e := range t.Events {
		if e.Kind == EvHop {
			hops = append(hops, e)
		}
	}
	return hops
}

// Spans collects per-packet lifecycle traces for a deterministic sample of
// packets. The sampling decision is a pure function of (seed, packet ID) —
// a SplitMix64-style hash compared against the sample rate — so two runs
// with the same seed and rate trace exactly the same packets regardless of
// wall-clock interleaving, and rate 1 traces every request.
//
// Request-class packets are sampled at injection (Offer); replies inherit
// the request's decision when the memory controller links them (LinkReply).
// Probe sites gate on Packet.Sampled before calling in, so un-sampled
// packets cost one boolean test per site.
type Spans struct {
	seed  uint64
	rate  float64
	byID  map[uint64]*PacketTrace
	order []*PacketTrace // first-seen order: the deterministic iteration order
}

// NewSpans returns a collector sampling the given fraction of request
// packets. Rate must be in [0,1]; 0 samples nothing (useful for overhead
// equivalence tests), 1 samples everything.
func NewSpans(seed uint64, rate float64) (*Spans, error) {
	if math.IsNaN(rate) || rate < 0 || rate > 1 {
		return nil, fmt.Errorf("telemetry: sample rate %v outside [0,1]", rate)
	}
	return &Spans{seed: seed, rate: rate, byID: map[uint64]*PacketTrace{}}, nil
}

// NumTraces returns the number of packets traced so far.
func (s *Spans) NumTraces() int { return len(s.order) }

// Traces returns all packet traces in first-seen order. The slice is the
// collector's own; callers must not mutate it.
func (s *Spans) Traces() []*PacketTrace { return s.order }

// mix64 is the SplitMix64 output mixer (same constants as internal/rng):
// a bijective avalanche over the packet-ID/seed combination.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// sampled decides membership for a packet ID: hash to a uniform value in
// [0,1) and compare against the rate. Deterministic in (seed, id).
func (s *Spans) sampled(id uint64) bool {
	if s.rate == 0 {
		return false
	}
	u := float64(mix64(id^s.seed)>>11) / float64(1<<53) // uniform in [0,1)
	return u < s.rate
}

// start registers a fresh trace for p under the given transaction ID.
func (s *Spans) start(p *packet.Packet, trace uint64) *PacketTrace {
	t := &PacketTrace{
		ID:    p.ID,
		Trace: trace,
		Type:  p.Type.String(),
		Src:   p.Src,
		Dst:   p.Dst,
		Flits: p.Flits,
	}
	s.byID[p.ID] = t
	s.order = append(s.order, t)
	return t
}

// Offer runs the sampling decision for a packet the network just accepted.
// Request packets are hashed; replies are traced only via LinkReply. A
// packet already marked Sampled (a linked reply, or a re-offer) is left
// alone.
func (s *Spans) Offer(p *packet.Packet) {
	if p.Sampled {
		return
	}
	if p.Class() != packet.Request || !s.sampled(p.ID) {
		return
	}
	p.Sampled = true
	t := s.start(p, p.ID)
	t.Events = append(t.Events, Event{Kind: EvCreated, Cycle: p.CreatedAt, Node: p.Src})
}

// LinkReply marks the reply of a sampled request as sampled, starts its
// trace under the request's transaction ID, and records the handoff on the
// request's trace. Call from the memory controller when the reply packet is
// created; cycle is the creation cycle.
func (s *Spans) LinkReply(req, rep *packet.Packet, cycle int64) {
	rt := s.byID[req.ID]
	if rt == nil {
		return
	}
	rep.Sampled = true
	t := s.start(rep, rt.Trace)
	t.Events = append(t.Events, Event{Kind: EvCreated, Cycle: cycle, Node: rep.Src})
	rt.Events = append(rt.Events, Event{Kind: EvReply, Cycle: cycle, Node: rep.Src, Reply: rep.ID})
}

// trace returns the trace for a sampled packet, or nil (e.g. a reply whose
// request was never sampled but whose Sampled bit was copied anyway).
func (s *Spans) trace(p *packet.Packet) *PacketTrace {
	return s.byID[p.ID]
}

// Injected records the head flit entering the network through local VC vc.
func (s *Spans) Injected(p *packet.Packet, vc int, cycle int64) {
	if t := s.trace(p); t != nil {
		t.Events = append(t.Events, Event{Kind: EvInjected, Cycle: cycle, Node: p.Src, VC: vc})
	}
}

// VCGrant records winning VC allocation at router node toward downstream
// node to, on virtual channel vc.
func (s *Spans) VCGrant(p *packet.Packet, node, to, vc int, cycle int64) {
	if t := s.trace(p); t != nil {
		t.Events = append(t.Events, Event{Kind: EvVCGrant, Cycle: cycle, Node: node, To: to, VC: vc})
	}
}

// Hop records the head flit crossing the link node->to on VC vc.
func (s *Spans) Hop(p *packet.Packet, node, to, vc int, cycle int64) {
	if t := s.trace(p); t != nil {
		t.Events = append(t.Events, Event{Kind: EvHop, Cycle: cycle, Node: node, To: to, VC: vc})
	}
}

// Stall charges one switch-allocation stall cycle at router node to the
// packet at the head of an input VC. Consecutive stalls with the same node
// and cause collapse into one event with N counting the cycles — a packet
// stuck for 50 cycles costs one event, not 50.
func (s *Spans) Stall(p *packet.Packet, node int, cause StallCause, cycle int64) {
	t := s.trace(p)
	if t == nil {
		return
	}
	if n := len(t.Events); n > 0 {
		last := &t.Events[n-1]
		if last.Kind == EvStall && last.Node == node && last.Cause == cause {
			last.N++
			return
		}
	}
	t.Events = append(t.Events, Event{Kind: EvStall, Cycle: cycle, Node: node, Cause: cause, N: 1})
}

// Ejected records the tail flit leaving the network at the destination.
func (s *Spans) Ejected(p *packet.Packet, cycle int64) {
	if t := s.trace(p); t != nil {
		t.Events = append(t.Events, Event{Kind: EvEjected, Cycle: cycle, Node: p.Dst})
	}
}

// MCService records the memory controller's L2 lookup for a request.
func (s *Spans) MCService(p *packet.Packet, node int, l2Hit bool, cycle int64) {
	if t := s.trace(p); t != nil {
		t.Events = append(t.Events, Event{Kind: EvMCService, Cycle: cycle, Node: node, Hit: l2Hit})
	}
}

// DRAMQueued records the request entering the DRAM command queue.
func (s *Spans) DRAMQueued(p *packet.Packet, node int, cycle int64) {
	if t := s.trace(p); t != nil {
		t.Events = append(t.Events, Event{Kind: EvDRAMQueued, Cycle: cycle, Node: node})
	}
}

// DRAMIssue records the DRAM issuing the command for the request.
func (s *Spans) DRAMIssue(p *packet.Packet, node, bank int, rowHit bool, cycle int64) {
	if t := s.trace(p); t != nil {
		t.Events = append(t.Events, Event{Kind: EvDRAMIssue, Cycle: cycle, Node: node, Bank: bank, Hit: rowHit})
	}
}

// DRAMDone records the DRAM burst completing for the request.
func (s *Spans) DRAMDone(p *packet.Packet, node int, cycle int64) {
	if t := s.trace(p); t != nil {
		t.Events = append(t.Events, Event{Kind: EvDRAMDone, Cycle: cycle, Node: node})
	}
}

// Transaction pairs a sampled request trace with its reply and decomposes
// the end-to-end latency into the same four segments as the latency
// histograms (latency.<kind>.<segment>).
type Transaction struct {
	Trace uint64
	Read  bool // read transaction (READ-REQUEST/READ-REPLY) vs write
	Req   *PacketTrace
	Rep   *PacketTrace

	// Segments, valid only when Complete, in cycles.
	Segments [NumSegments]int64
	Complete bool // reply fully ejected: all four segments valid
}

// Total returns the end-to-end transaction latency (sum of segments).
func (x *Transaction) Total() int64 {
	return x.Segments[0] + x.Segments[1] + x.Segments[2] + x.Segments[3]
}

// Transactions pairs request and reply traces by transaction ID and
// computes segment latencies from span event cycles. Order follows the
// request traces' first-seen order.
func (s *Spans) Transactions() []Transaction {
	reply := make(map[uint64]*PacketTrace, len(s.order)/2)
	for _, t := range s.order {
		if t.Trace != t.ID { // a reply: keyed by the shared transaction ID
			reply[t.Trace] = t
		}
	}
	var out []Transaction
	for _, req := range s.order {
		if req.Trace != req.ID {
			continue
		}
		x := Transaction{Trace: req.Trace, Req: req, Rep: reply[req.Trace]}
		x.Read = req.Type == packet.ReadRequest.String()
		if x.Rep != nil {
			reqCreated, okA := req.Find(EvCreated)
			reqInj, okB := req.Find(EvInjected)
			reqEj, okC := req.Find(EvEjected)
			repInj, okD := x.Rep.Find(EvInjected)
			repEj, okE := x.Rep.Find(EvEjected)
			if okA && okB && okC && okD && okE {
				x.Segments[0] = reqInj.Cycle - reqCreated.Cycle
				x.Segments[1] = reqEj.Cycle - reqInj.Cycle
				x.Segments[2] = repInj.Cycle - reqEj.Cycle
				x.Segments[3] = repEj.Cycle - repInj.Cycle
				x.Complete = true
			}
		}
		out = append(out, x)
	}
	return out
}

// appendEvents appends the sampled packets to a Chrome trace as process 2:
// one track per packet, named after it, with the whole lifetime as the
// outermost span and queue wait, hops, stalls, and MC/DRAM service nested
// inside by time containment.
func (s *Spans) appendEvents(evs []TraceEvent) []TraceEvent {
	const pid = 2
	dur := func(d int64) *int64 { return &d }
	evs = append(evs, TraceEvent{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": "sampled packets"}})
	for i, t := range s.order {
		tid := i + 1
		evs = append(evs, TraceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("pkt#%d %s N%d->N%d trace#%d", t.ID, t.Type, t.Src, t.Dst, t.Trace)},
		})
		created, okCreated := t.Find(EvCreated)
		injected, okInjected := t.Find(EvInjected)
		ejected, okEjected := t.Find(EvEjected)
		if okCreated {
			evs = append(evs, TraceEvent{
				Name: t.Type, Ph: "X", TS: created.Cycle, Dur: dur(lastCycle(t) - created.Cycle), PID: pid, TID: tid,
				Args: map[string]any{"trace": t.Trace, "flits": t.Flits},
			})
			if okInjected {
				evs = append(evs, TraceEvent{
					Name: "srcqueue", Ph: "X", TS: created.Cycle, Dur: dur(injected.Cycle - created.Cycle), PID: pid, TID: tid,
				})
			}
		}
		// Hop spans: each covers from the previous network milestone
		// (injection or prior hop) to the hop's link-traversal cycle.
		prev, prevOK := injected.Cycle, okInjected
		for _, e := range t.Events {
			switch e.Kind {
			case EvHop:
				if prevOK {
					evs = append(evs, TraceEvent{
						Name: fmt.Sprintf("N%d->N%d vc%d", e.Node, e.To, e.VC),
						Ph:   "X", TS: prev, Dur: dur(e.Cycle - prev), PID: pid, TID: tid,
					})
				}
				prev, prevOK = e.Cycle, true
			case EvEjected:
				if prevOK {
					evs = append(evs, TraceEvent{
						Name: fmt.Sprintf("eject N%d", e.Node),
						Ph:   "X", TS: prev, Dur: dur(e.Cycle - prev), PID: pid, TID: tid,
					})
				}
			case EvStall:
				evs = append(evs, TraceEvent{
					Name: fmt.Sprintf("stall:%s@N%d", e.Cause, e.Node),
					Ph:   "X", TS: e.Cycle, Dur: dur(e.N), PID: pid, TID: tid,
					Args: map[string]any{"cycles": e.N},
				})
			case EvVCGrant:
				evs = append(evs, TraceEvent{
					Name: fmt.Sprintf("vcgrant N%d vc%d", e.Node, e.VC),
					Ph:   "i", TS: e.Cycle, PID: pid, TID: tid,
				})
			case EvMCService:
				evs = append(evs, TraceEvent{
					Name: "l2 " + hitMiss(e.Hit),
					Ph:   "i", TS: e.Cycle, PID: pid, TID: tid,
				})
			case EvDRAMIssue:
				evs = append(evs, TraceEvent{
					Name: fmt.Sprintf("dram issue bank%d %s", e.Bank, hitMiss(e.Hit)),
					Ph:   "i", TS: e.Cycle, PID: pid, TID: tid,
				})
			}
		}
		// MC/DRAM service spans on the request track.
		if q, ok := t.Find(EvDRAMQueued); ok {
			if d, ok2 := t.Find(EvDRAMDone); ok2 {
				evs = append(evs, TraceEvent{
					Name: "dram", Ph: "X", TS: q.Cycle, Dur: dur(d.Cycle - q.Cycle), PID: pid, TID: tid,
				})
			}
		}
		if okEjected {
			if rep, ok := t.Find(EvReply); ok {
				evs = append(evs, TraceEvent{
					Name: "mc.service", Ph: "X", TS: ejected.Cycle, Dur: dur(rep.Cycle - ejected.Cycle), PID: pid, TID: tid,
					Args: map[string]any{"reply": rep.Reply},
				})
			}
		}
	}
	return evs
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// lastCycle returns the cycle of the trace's latest event.
func lastCycle(t *PacketTrace) int64 {
	var last int64
	for _, e := range t.Events {
		c := e.Cycle
		if e.Kind == EvStall {
			c += e.N
		}
		last = max(last, c)
	}
	return last
}
