package fleetobs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRecorderRetainsRecent(t *testing.T) {
	r := NewRecorder(8) // ring size 8 (already a power of two)
	for i := int64(0); i < 20; i++ {
		r.Record(i, KindCheckpoint, i*10, 0, 0)
	}
	if r.Recorded() != 20 {
		t.Fatalf("Recorded() = %d, want 20", r.Recorded())
	}
	// Minimum ring size is 64, so a size-8 request retains everything.
	if r.Len() != 20 {
		t.Fatalf("Len() = %d, want 20", r.Len())
	}

	small := &Recorder{ring: make([]Event, 8), mask: 7}
	for i := int64(0); i < 20; i++ {
		small.Record(i, KindCheckpoint, i*10, 0, 0)
	}
	ev := small.Events()
	if len(ev) != 8 {
		t.Fatalf("wrapped Len = %d, want 8", len(ev))
	}
	for i, e := range ev {
		want := uint64(12 + i)
		if e.Seq != want {
			t.Fatalf("event %d: seq %d, want %d", i, e.Seq, want)
		}
		if e.Cycle != int64(want) || e.A != int64(want)*10 {
			t.Fatalf("event %d: payload mismatch: %+v", i, e)
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, KindPhase, 0, 0, 0) // must not panic
	if r.Len() != 0 || r.Recorded() != 0 {
		t.Fatal("nil recorder should report zero events")
	}
	if ev := r.Events(); len(ev) != 0 {
		t.Fatalf("nil recorder Events() = %v", ev)
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	r := NewRecorder(256)
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(42, KindCheckpoint, 1, 2, 3)
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %.1f per call, want 0", allocs)
	}
}

// readDump decodes a dump's JSONL lines as written: the header, then one
// event per line. Every line must be one JSON object of the line's shape,
// with no field the writer does not produce.
func readDump(t *testing.T, data []byte) (DumpHeader, []dumpEvent) {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	decode := func(line string, v any) {
		t.Helper()
		dec := json.NewDecoder(strings.NewReader(line))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			t.Fatalf("dump line %q: %v", line, err)
		}
	}
	var hdr DumpHeader
	decode(lines[0], &hdr)
	events := make([]dumpEvent, len(lines)-1)
	for i, line := range lines[1:] {
		decode(line, &events[i])
	}
	return hdr, events
}

func TestDumpRoundTrip(t *testing.T) {
	r := NewRecorder(64)
	r.Record(100, KindPhase, 1, 0, 0)
	r.Record(612, KindCheckpoint, 7, 512, 0)
	r.Record(613, KindInvariantFail, 0, 0, 0)

	dir := t.TempDir()
	path, err := r.Dump(dir, "kmn-s1-invariant", "invariant failure")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if want := filepath.Join(dir, "kmn-s1-invariant.flight.jsonl"); path != want {
		t.Fatalf("dump path %q, want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read dump: %v", err)
	}
	hdr, events := readDump(t, data)
	if hdr != (DumpHeader{Flight: "v1", Source: "gpu", Reason: "invariant failure", Recorded: 3}) {
		t.Fatalf("header %+v", hdr)
	}
	want := []dumpEvent{
		{Seq: 0, Cycle: 100, Kind: "phase", A: 1},
		{Seq: 1, Cycle: 612, Kind: "checkpoint", A: 7, B: 512},
		{Seq: 2, Cycle: 613, Kind: "invariant_fail"},
	}
	if len(events) != len(want) {
		t.Fatalf("got %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, events[i], want[i])
		}
	}
}

func TestDumpDroppedCount(t *testing.T) {
	small := &Recorder{ring: make([]Event, 4), mask: 3}
	for i := int64(0); i < 10; i++ {
		small.Record(i, KindCheckpoint, 0, 0, 0)
	}
	var buf bytes.Buffer
	if err := small.WriteJSONL(&buf, "watchdog"); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	hdr, events := readDump(t, buf.Bytes())
	if hdr.Recorded != 10 || hdr.Dropped != 6 {
		t.Fatalf("header %+v, want recorded 10 dropped 6", hdr)
	}
	if len(events) != 4 || events[0].Seq != 6 {
		t.Fatalf("events %+v", events)
	}
}

// TestKindStringsRoundTrip: every kind has a name of its own, so a dump's
// kind column maps back to one kind; an out-of-range kind prints its number.
func TestKindStringsRoundTrip(t *testing.T) {
	seen := map[string]Kind{}
	for k := KindPhase; k <= KindPanic; k++ {
		s := k.String()
		if prev, dup := seen[s]; dup || strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d is named %q, as is kind %d", k, s, prev)
		}
		seen[s] = k
	}
	if s := Kind(200).String(); s != "kind(200)" {
		t.Fatalf("out-of-range kind string %q", s)
	}
}

func TestWriteChromeTimeline(t *testing.T) {
	tl := &Timeline{
		SweepID: "abc123",
		NowMS:   500,
		Jobs: []*JobTimeline{
			{
				Fingerprint: "f1", Key: "seed=1",
				Spans: []TSpan{
					{Kind: SpanQueued, StartMS: 0, EndMS: 10},
					{Kind: SpanLease, StartMS: 10, EndMS: 200, Worker: "w1", Attempt: 1, Heartbeats: 2},
					{Kind: SpanExpired, StartMS: 200, EndMS: 200, Worker: "w1"},
					{Kind: SpanLease, StartMS: 210, EndMS: -1, Worker: "w2", Attempt: 2},
				},
			},
			{
				Fingerprint: "f2", Key: "seed=2",
				Spans: []TSpan{{Kind: SpanCacheHit, StartMS: 0, EndMS: 0}},
			},
		},
	}
	var buf bytes.Buffer
	if err := WriteChromeTimeline(&buf, tl); err != nil {
		t.Fatalf("WriteChromeTimeline: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("chrome output is not a JSON array: %v\n%s", err, buf.String())
	}
	var sawOpenLease, sawExpiredInstant, sawThreadName bool
	for _, ev := range events {
		switch ev["name"] {
		case "lease (w2)":
			// Open span clamps to NowMS: (500-210)ms = 290000µs.
			if ev["ph"] == "X" && ev["dur"] == float64(290000) {
				sawOpenLease = true
			}
		case "expired (w1)":
			if ev["ph"] == "i" {
				sawExpiredInstant = true
			}
		case "thread_name":
			sawThreadName = true
		}
	}
	if !sawOpenLease {
		t.Errorf("open lease span not clamped to NowMS:\n%s", buf.String())
	}
	if !sawExpiredInstant {
		t.Errorf("zero-length span not rendered as instant:\n%s", buf.String())
	}
	if !sawThreadName {
		t.Errorf("thread_name metadata missing:\n%s", buf.String())
	}
}
