package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// subnetPrefixes are the name prefixes a probe set may carry: none for a
// single physical network, req./rep. for the two subnets of noc.Dual.
// Exporters that aggregate by link sum across whichever exist.
var subnetPrefixes = []string{"", "req.", "rep."}

// jsonlLine is the wire form of one JSONL export line; the Type field
// selects which of the remaining fields are meaningful.
type jsonlLine struct {
	Type string `json:"type"`

	// header
	Epoch int64    `json:"epoch,omitempty"`
	Names []string `json:"names,omitempty"`
	Kinds []string `json:"kinds,omitempty"`

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

// WriteJSONL streams the telemetry time-series as line-delimited JSON: one
// header line naming every scalar probe (the column schema), one line per
// epoch sample, and one trailing line per histogram. The format is
// self-describing, append-friendly, and round-trips through ReadJSONL.
func (t *Telemetry) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	kinds := t.Reg.ScalarKinds()
	kindNames := make([]string, len(kinds))
	for i, k := range kinds {
		kindNames[i] = k.String()
	}
	if err := enc.Encode(jsonlLine{Type: "header", Epoch: t.EpochLen,
		Names: t.Reg.ScalarNames(), Kinds: kindNames}); err != nil {
		return err
	}
	for _, s := range t.samples {
		if err := enc.Encode(jsonlLine{Type: "sample", Cycle: s.Cycle, Values: s.Values}); err != nil {
			return err
		}
	}
	var werr error
	t.Reg.EachHistogram(func(name string, h *Histogram) {
		if werr != nil {
			return
		}
		bounds, counts := h.Buckets()
		werr = enc.Encode(jsonlLine{Type: "hist", Name: name, Bounds: bounds, Counts: counts,
			Count: h.Count(), Sum: h.Sum(), Min: h.Min(), Max: h.Max()})
	})
	if werr != nil {
		return werr
	}
	return bw.Flush()
}

// ExportedHistogram is the parsed form of one histogram line.
type ExportedHistogram struct {
	Name           string
	Bounds, Counts []int64
	Count, Sum     int64
	Min, Max       int64
}

// Export is a parsed JSONL telemetry file.
type Export struct {
	EpochLen   int64
	Names      []string
	Kinds      []string
	Samples    []Sample
	Histograms []ExportedHistogram
}

// ReadJSONL parses a telemetry JSONL stream written by WriteJSONL.
func ReadJSONL(r io.Reader) (*Export, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	var ex Export
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var l jsonlLine
		if err := json.Unmarshal([]byte(text), &l); err != nil {
			return nil, fmt.Errorf("telemetry: jsonl line %d: %w", line, err)
		}
		switch l.Type {
		case "header":
			ex.EpochLen, ex.Names, ex.Kinds = l.Epoch, l.Names, l.Kinds
		case "sample":
			if len(l.Values) != len(ex.Names) {
				return nil, fmt.Errorf("telemetry: jsonl line %d: sample has %d values for %d probes",
					line, len(l.Values), len(ex.Names))
			}
			ex.Samples = append(ex.Samples, Sample{Cycle: l.Cycle, Values: l.Values})
		case "hist":
			ex.Histograms = append(ex.Histograms, ExportedHistogram{Name: l.Name,
				Bounds: l.Bounds, Counts: l.Counts, Count: l.Count, Sum: l.Sum, Min: l.Min, Max: l.Max})
		default:
			return nil, fmt.Errorf("telemetry: jsonl line %d: unknown line type %q", line, l.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &ex, nil
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

// WriteHeatmapCSV writes the per-link flit counts by class as CSV keyed by
// mesh coordinates — the data behind the paper's Figure 4/6 pictures,
// measured from probes. For a dual-subnet fabric the req./rep. probe sets
// are summed per link. Utilization is total flits over sampled cycles.
func (t *Telemetry) WriteHeatmapCSV(w io.Writer, m mesh.Mesh) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, "from_row,from_col,to_row,to_col,dir,request_flits,reply_flits,total_flits,utilization"); err != nil {
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
		if _, err := fmt.Fprintf(bw, "%d,%d,%d,%d,%s,%d,%d,%d,%.4f\n",
			from.Row, from.Col, to.Row, to.Col, l.Dir, req, rep, req+rep, util); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// TraceEvent is one event of the Chrome trace-event JSON format (loadable by
// chrome://tracing and Perfetto). It is the one event shape every exporter in
// the repository writes — telemetry counter tracks, per-packet spans, fleet
// job timelines — so the field order here is the field order of all three
// files. Ph "C" is a counter sample, "X" a complete span (Dur set, possibly
// to zero), "i" an instant (S is its scope), "M" metadata.
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

// WriteTraceObject writes events in the trace format's object form, one
// line: {"traceEvents":[...],"displayTimeUnit":unit,"otherData":other},
// otherData omitted when nil.
func WriteTraceObject(w io.Writer, events []TraceEvent, unit string, other map[string]any) error {
	bw := bufio.NewWriter(w)
	if err := json.NewEncoder(bw).Encode(struct {
		TraceEvents     []TraceEvent   `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{events, unit, other}); err != nil {
		return err
	}
	return bw.Flush()
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

// DefaultTraceFilter keeps the aggregate series (stalls, MC/DRAM state,
// core counters, latency) and drops the per-link and per-node probe swarm,
// which would bury a timeline view under thousands of tracks.
func DefaultTraceFilter(name string) bool {
	return !strings.Contains(name, "link.") && !strings.Contains(name, "node.")
}

// WriteChromeTrace exports the epoch series as Chrome trace-event JSON:
// one counter track per scalar probe passing filter (nil means
// DefaultTraceFilter), with the timestamp axis in simulated cycles
// (displayed as microseconds by the viewer). Counters are emitted as
// per-epoch deltas — the rate the timeline view is after — and gauges as
// sampled levels.
func (t *Telemetry) WriteChromeTrace(w io.Writer, filter func(name string) bool) error {
	if filter == nil {
		filter = DefaultTraceFilter
	}
	names := t.Reg.ScalarNames()
	kinds := t.Reg.ScalarKinds()
	keep := make([]int, 0, len(names))
	for i, n := range names {
		if filter(n) {
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
	return WriteTraceObject(w, events, "ms",
		map[string]any{"epoch_cycles": t.EpochLen, "source": "gpgpunoc telemetry"})
}
