package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// subnetPrefixes are the name prefixes a probe set may carry: none for a
// single physical network, req./rep. for the two subnets of noc.Dual.
// Exporters that aggregate by link sum across whichever exist.
var subnetPrefixes = []string{"", "req.", "rep."}

// ValidateEpoch rejects a trace epoch New would refuse: the sampler
// snapshots every epoch cycles, so the epoch must be positive.
func ValidateEpoch(epoch int64) error {
	if epoch <= 0 {
		return fmt.Errorf("telemetry: trace epoch %d cycles, need > 0", epoch)
	}
	return nil
}

// ValidateRate rejects a span sample rate outside (0, 1]: a command asked
// for spans, and rate 0 would trace nothing, silently.
func ValidateRate(rate float64) error {
	if !(rate > 0 && rate <= 1) {
		return fmt.Errorf("telemetry: trace rate %v outside (0, 1]", rate)
	}
	return nil
}

// WriteTrace writes one run's trace into dir, creating it: series.jsonl
// (WriteJSONL), trace.json (the Chrome trace: counter tracks and, when sp
// is not nil, packet spans on one cycle clock) and heatmap.csv (flits per
// link of m by class).
func WriteTrace(dir string, t *Telemetry, sp *Spans, m mesh.Mesh) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, f := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"series.jsonl", func(w io.Writer) error { return t.WriteJSONL(w, sp) }},
		{"trace.json", func(w io.Writer) error { return t.writeChrome(w, sp) }},
		{"heatmap.csv", func(w io.Writer) error { return t.writeHeatmap(w, m) }},
	} {
		if err := writeFile(filepath.Join(dir, f.name), f.write); err != nil {
			return err
		}
	}
	return nil
}

// writeFile creates path and writes it, buffered, with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// jsonlLine is the wire form of a header, sample or histogram line of
// series.jsonl; the Type field selects which of the remaining fields are
// meaningful. A packet line is packetLine.
type jsonlLine struct {
	Type string `json:"type"`

	// header
	Epoch int64    `json:"epoch,omitempty"`
	Names []string `json:"names,omitempty"`
	Kinds []string `json:"kinds,omitempty"`
	Seed  uint64   `json:"seed,omitempty"` // span sampler, when sp is not nil
	Rate  float64  `json:"rate,omitempty"`

	// sample
	Cycle  int64   `json:"cycle"`
	Values []int64 `json:"values,omitempty"`

	// hist
	Name   string  `json:"name,omitempty"`
	Bounds []int64 `json:"bounds,omitempty"`
	Counts []int64 `json:"counts,omitempty"`
	Count  int64   `json:"count,omitempty"`
	Sum    int64   `json:"sum,omitempty"`
	Min    int64   `json:"min,omitempty"`
	Max    int64   `json:"max,omitempty"`
}

// packetLine is one sampled packet's line of series.jsonl.
type packetLine struct {
	Type string `json:"type"` // "packet"
	PacketTrace
}

// WriteJSONL writes series.jsonl: a header line naming every scalar probe
// (the column schema) and, when sp is not nil, its sampler's seed and rate;
// one line per epoch sample; one per histogram; then one per packet sp
// sampled, in first-seen order. ReadTrace reads it back.
func (t *Telemetry) WriteJSONL(w io.Writer, sp *Spans) error {
	enc := json.NewEncoder(w)
	h := jsonlLine{Type: "header", Epoch: t.EpochLen, Names: t.Reg.ScalarNames()}
	for _, k := range t.Reg.ScalarKinds() {
		h.Kinds = append(h.Kinds, k.String())
	}
	if sp != nil {
		h.Seed, h.Rate = sp.seed, sp.rate
	}
	if err := enc.Encode(h); err != nil {
		return err
	}
	for _, s := range t.samples {
		if err := enc.Encode(jsonlLine{Type: "sample", Cycle: s.Cycle, Values: s.Values}); err != nil {
			return err
		}
	}
	for i := range t.Reg.probes {
		p := &t.Reg.probes[i]
		if p.kind != KindHistogram {
			continue
		}
		bounds, counts := p.hist.Buckets()
		if err := enc.Encode(jsonlLine{Type: "hist", Name: p.name, Bounds: bounds, Counts: counts,
			Count: p.hist.Count(), Sum: p.hist.Sum(), Min: p.hist.Min(), Max: p.hist.Max()}); err != nil {
			return err
		}
	}
	if sp == nil {
		return nil
	}
	for _, p := range sp.order {
		if err := enc.Encode(packetLine{Type: "packet", PacketTrace: *p}); err != nil {
			return err
		}
	}
	return nil
}

// ExportedHistogram is the parsed form of one histogram line.
type ExportedHistogram struct {
	Name           string
	Bounds, Counts []int64
	Count, Sum     int64
	Min, Max       int64
}

// Trace is a parsed series.jsonl.
type Trace struct {
	EpochLen   int64
	Names      []string
	Kinds      []string
	Samples    []Sample
	Histograms []ExportedHistogram

	// Seed and Rate are the span sampler's, and Packets the sampled
	// packets in first-seen order; all zero for a run without spans.
	Seed    uint64
	Rate    float64
	Packets []*PacketTrace
}

// ReadTrace parses a series.jsonl written by WriteJSONL. The header must
// be its first record; every error names the line it is about.
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	line := 0
	fail := func(format string, a ...any) (*Trace, error) {
		return nil, fmt.Errorf("telemetry: series line %d: %s", line, fmt.Sprintf(format, a...))
	}
	var tr *Trace
	for sc.Scan() {
		line++
		raw := bytes.TrimSpace(sc.Bytes())
		if len(raw) == 0 {
			continue
		}
		var l struct {
			jsonlLine
			PacketTrace
		}
		if err := json.Unmarshal(raw, &l); err != nil {
			return fail("%v", err)
		}
		typ := l.jsonlLine.Type
		switch {
		case tr == nil && typ != "header":
			return fail("the header must come first, not a %q record", typ)
		case tr == nil:
			if len(l.Kinds) != len(l.Names) {
				return fail("header has %d kinds for %d probes", len(l.Kinds), len(l.Names))
			}
			tr = &Trace{EpochLen: l.Epoch, Names: l.Names, Kinds: l.Kinds, Seed: l.Seed, Rate: l.Rate}
		case typ == "sample":
			if len(l.Values) != len(tr.Names) {
				return fail("sample has %d values for %d probes", len(l.Values), len(tr.Names))
			}
			tr.Samples = append(tr.Samples, Sample{Cycle: l.Cycle, Values: l.Values})
		case typ == "hist":
			tr.Histograms = append(tr.Histograms, ExportedHistogram{Name: l.Name,
				Bounds: l.Bounds, Counts: l.Counts, Count: l.Count, Sum: l.Sum, Min: l.Min, Max: l.Max})
		case typ == "packet":
			p := l.PacketTrace
			tr.Packets = append(tr.Packets, &p)
		default:
			return fail("unexpected %q record", typ)
		}
	}
	if err := sc.Err(); err != nil {
		line++
		return fail("%v", err)
	}
	if tr == nil {
		line++
		return fail("no header record")
	}
	return tr, nil
}

// linkClassFlits sums the probe value for one link and class across every
// subnet prefix present in the registry.
func (t *Telemetry) linkClassFlits(m mesh.Mesh, l mesh.Link, cls packet.Class) int64 {
	stem := LinkName(m, l)
	var sum int64
	for _, pfx := range subnetPrefixes {
		if v, ok := t.Reg.Value(fmt.Sprintf("%s%s.%s.flits", pfx, stem, cls)); ok {
			sum += v
		}
	}
	return sum
}

// writeHeatmap writes heatmap.csv: the per-link flit counts by class keyed
// by mesh coordinates — the data behind the paper's Figure 4/6 pictures,
// measured from probes. For a dual-subnet fabric the req./rep. probe sets
// are summed per link. Utilization is total flits over sampled cycles.
func (t *Telemetry) writeHeatmap(w io.Writer, m mesh.Mesh) error {
	if _, err := fmt.Fprintln(w, "from_row,from_col,to_row,to_col,dir,request_flits,reply_flits,total_flits,utilization"); err != nil {
		return err
	}
	cycles := t.LastCycle()
	for _, l := range m.Links() {
		from := m.Coord(l.From)
		to, _ := m.Neighbor(from, l.Dir)
		req := t.linkClassFlits(m, l, packet.Request)
		rep := t.linkClassFlits(m, l, packet.Reply)
		util := 0.0
		if cycles > 0 {
			util = float64(req+rep) / float64(cycles)
		}
		if _, err := fmt.Fprintf(w, "%d,%d,%d,%d,%s,%d,%d,%d,%.4f\n",
			from.Row, from.Col, to.Row, to.Col, l.Dir, req, rep, req+rep, util); err != nil {
			return err
		}
	}
	return nil
}

// TraceEvent is one event of the Chrome trace-event JSON format (loadable by
// chrome://tracing and Perfetto). It is the one event shape every exporter in
// the repository writes — a run's trace.json and the fleet job timeline — so
// the field order here is the field order of both. Ph "C" is a counter
// sample, "X" a complete span (Dur set, possibly to zero), "i" an instant
// (S is its scope), "M" metadata.
type TraceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   int64          `json:"ts"`
	Dur  *int64         `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Cat  string         `json:"cat,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteTraceArray writes events in the trace format's bare-array form, one
// event per line so the file diffs and greps by event.
func WriteTraceArray(w io.Writer, events []TraceEvent) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("[\n")
	for i, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		if i > 0 {
			bw.WriteString(",\n")
		}
		bw.Write(b)
	}
	bw.WriteString("\n]\n")
	return bw.Flush() // reports the first write error, if any
}

// counterTrack keeps the aggregate series (stalls, MC/DRAM state, core
// counters) in trace.json and drops the per-link and per-node probe swarm,
// which would bury a timeline view under thousands of tracks.
func counterTrack(name string) bool {
	return !strings.Contains(name, "link.") && !strings.Contains(name, "node.")
}

// writeChrome writes trace.json in the trace format's object form. Process
// 1 holds one counter track per scalar probe counterTrack keeps — counters
// as per-epoch deltas, the rate a timeline is read for, and gauges as
// sampled levels; process 2, when sp is not nil, one track per sampled
// packet (Spans.appendEvents). Both run on one clock: one simulated cycle
// is one microsecond of trace time.
func (t *Telemetry) writeChrome(w io.Writer, sp *Spans) error {
	names := t.Reg.ScalarNames()
	kinds := t.Reg.ScalarKinds()
	keep := make([]int, 0, len(names))
	for i, n := range names {
		if counterTrack(n) {
			keep = append(keep, i)
		}
	}
	events := []TraceEvent{{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "gpgpunoc"},
	}}
	for si, s := range t.samples {
		for _, i := range keep {
			v := s.Values[i]
			if kinds[i] == KindCounter {
				if si == 0 {
					continue // no preceding epoch to difference against
				}
				v -= t.samples[si-1].Values[i]
			}
			events = append(events, TraceEvent{
				Name: names[i], Ph: "C", TS: s.Cycle, PID: 1, TID: 1, Cat: "telemetry",
				Args: map[string]any{"value": v},
			})
		}
	}
	if sp != nil {
		events = sp.appendEvents(events)
	}
	return json.NewEncoder(w).Encode(struct {
		TraceEvents     []TraceEvent   `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData"`
	}{events, "ms", map[string]any{"epoch_cycles": t.EpochLen, "source": "gpgpunoc telemetry"}})
}
