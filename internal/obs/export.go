// Span exports: a JSONL span log with a ReadSpans round-trip, and Chrome
// trace-event JSON loadable in Perfetto with spans nested under per-packet
// tracks.

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"gpgpunoc/internal/telemetry"
)

// spanHeader is the first JSONL line: enough to re-run the sampling
// decision and sanity-check a log against the run that produced it.
type spanHeader struct {
	Type   string  `json:"type"` // "spans"
	Seed   uint64  `json:"seed"`
	Rate   float64 `json:"rate"`
	Traces int     `json:"traces"`
}

// spanLine is one subsequent JSONL line: a full packet trace.
type spanLine struct {
	Type string `json:"type"` // "packet"
	PacketTrace
}

// SpanLog is the parsed form of a span JSONL file.
type SpanLog struct {
	Seed   uint64
	Rate   float64
	Traces []*PacketTrace
}

// WriteJSONL writes the span log: one header line, then one line per
// packet trace in first-seen order.
func (s *Spans) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(spanHeader{Type: "spans", Seed: s.seed, Rate: s.rate, Traces: len(s.order)}); err != nil {
		return err
	}
	for _, t := range s.order {
		if err := enc.Encode(spanLine{Type: "packet", PacketTrace: *t}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadSpans parses a span JSONL stream written by WriteJSONL.
func ReadSpans(r io.Reader) (*SpanLog, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	var log *SpanLog
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		if log == nil {
			var h spanHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return nil, fmt.Errorf("obs: span log line %d: %w", line, err)
			}
			if h.Type != "spans" {
				return nil, fmt.Errorf("obs: span log line %d: expected header type %q, got %q", line, "spans", h.Type)
			}
			log = &SpanLog{Seed: h.Seed, Rate: h.Rate, Traces: make([]*PacketTrace, 0, h.Traces)}
			continue
		}
		var l spanLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("obs: span log line %d: %w", line, err)
		}
		if l.Type != "packet" {
			return nil, fmt.Errorf("obs: span log line %d: unexpected record type %q", line, l.Type)
		}
		t := l.PacketTrace
		log.Traces = append(log.Traces, &t)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading span log: %w", err)
	}
	if log == nil {
		return nil, fmt.Errorf("obs: span log is empty")
	}
	return log, nil
}

// WriteChromeTrace renders the span log as Chrome trace-event JSON: one
// track (tid) per sampled packet, named after the packet, with the whole
// lifetime as the outermost span and queue wait, hops, stalls, and
// MC/DRAM service nested inside by time containment. One simulated cycle
// maps to one microsecond of trace time.
func (s *Spans) WriteChromeTrace(w io.Writer) error {
	var evs []telemetry.TraceEvent
	const pid = 1
	dur := func(d int64) *int64 { return &d }
	for i, t := range s.order {
		tid := i + 1
		evs = append(evs, telemetry.TraceEvent{
			Name: "thread_name", Ph: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": fmt.Sprintf("pkt#%d %s N%d->N%d trace#%d", t.ID, t.Type, t.Src, t.Dst, t.Trace)},
		})
		created, okCreated := t.Find(EvCreated)
		injected, okInjected := t.Find(EvInjected)
		ejected, okEjected := t.Find(EvEjected)
		end := lastCycle(t)
		if okCreated {
			evs = append(evs, telemetry.TraceEvent{
				Name: t.Type, Ph: "X", TS: created.Cycle, Dur: dur(end - created.Cycle), PID: pid, TID: tid,
				Args: map[string]any{"trace": t.Trace, "flits": t.Flits},
			})
			if okInjected {
				evs = append(evs, telemetry.TraceEvent{
					Name: "srcqueue", Ph: "X", TS: created.Cycle, Dur: dur(injected.Cycle - created.Cycle), PID: pid, TID: tid,
				})
			}
		}
		// Hop spans: each covers from the previous network milestone
		// (injection or prior hop) to the hop's link-traversal cycle.
		prev := injected.Cycle
		prevOK := okInjected
		for _, e := range t.Events {
			switch e.Kind {
			case EvHop:
				if prevOK {
					evs = append(evs, telemetry.TraceEvent{
						Name: fmt.Sprintf("N%d->N%d vc%d", e.Node, e.To, e.VC),
						Ph:   "X", TS: prev, Dur: dur(e.Cycle - prev), PID: pid, TID: tid,
					})
				}
				prev, prevOK = e.Cycle, true
			case EvEjected:
				if prevOK {
					evs = append(evs, telemetry.TraceEvent{
						Name: fmt.Sprintf("eject N%d", e.Node),
						Ph:   "X", TS: prev, Dur: dur(e.Cycle - prev), PID: pid, TID: tid,
					})
				}
			case EvStall:
				evs = append(evs, telemetry.TraceEvent{
					Name: fmt.Sprintf("stall:%s@N%d", e.Cause, e.Node),
					Ph:   "X", TS: e.Cycle, Dur: dur(e.N), PID: pid, TID: tid,
					Args: map[string]any{"cycles": e.N},
				})
			case EvVCGrant:
				evs = append(evs, telemetry.TraceEvent{
					Name: fmt.Sprintf("vcgrant N%d vc%d", e.Node, e.VC),
					Ph:   "i", TS: e.Cycle, PID: pid, TID: tid,
				})
			case EvMCService:
				evs = append(evs, telemetry.TraceEvent{
					Name: fmt.Sprintf("l2 %s", hitMiss(e.Hit)),
					Ph:   "i", TS: e.Cycle, PID: pid, TID: tid,
				})
			case EvDRAMIssue:
				evs = append(evs, telemetry.TraceEvent{
					Name: fmt.Sprintf("dram issue bank%d %s", e.Bank, hitMiss(e.Hit)),
					Ph:   "i", TS: e.Cycle, PID: pid, TID: tid,
				})
			}
		}
		// MC/DRAM service spans on the request track.
		if q, ok := t.Find(EvDRAMQueued); ok {
			if d, ok2 := t.Find(EvDRAMDone); ok2 {
				evs = append(evs, telemetry.TraceEvent{
					Name: "dram", Ph: "X", TS: q.Cycle, Dur: dur(d.Cycle - q.Cycle), PID: pid, TID: tid,
				})
			}
		}
		if okEjected {
			if rep, ok := t.Find(EvReply); ok {
				evs = append(evs, telemetry.TraceEvent{
					Name: "mc.service", Ph: "X", TS: ejected.Cycle, Dur: dur(rep.Cycle - ejected.Cycle), PID: pid, TID: tid,
					Args: map[string]any{"reply": rep.Reply},
				})
			}
		}
	}
	return telemetry.WriteTraceObject(w, evs, "ns", nil)
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
		if c > last {
			last = c
		}
	}
	return last
}
