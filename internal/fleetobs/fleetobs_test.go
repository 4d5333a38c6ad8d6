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
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("open dump: %v", err)
	}
	defer f.Close()
	hdr, events, err := ReadDump(f)
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if hdr.Source != "gpu" || hdr.Reason != "invariant failure" {
		t.Fatalf("header %+v", hdr)
	}
	if hdr.Recorded != 3 || hdr.Dropped != 0 {
		t.Fatalf("header counts %+v", hdr)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events, want 3", len(events))
	}
	if events[2].Kind != KindInvariantFail || events[2].Cycle != 613 {
		t.Fatalf("last event %+v", events[2])
	}
	if events[1].A != 7 || events[1].B != 512 {
		t.Fatalf("checkpoint payload %+v", events[1])
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
	hdr, events, err := ReadDump(&buf)
	if err != nil {
		t.Fatalf("ReadDump: %v", err)
	}
	if hdr.Recorded != 10 || hdr.Dropped != 6 {
		t.Fatalf("header %+v, want recorded 10 dropped 6", hdr)
	}
	if len(events) != 4 || events[0].Seq != 6 {
		t.Fatalf("events %+v", events)
	}
}

// TestReadDumpRefusesRetiredKinds: a dump holding a kind the recorder does
// not define, such as the "pool" and "retile" kernel events older dumps
// carry, is refused by the kind's name and line rather than read with those
// events silently gone.
func TestReadDumpRefusesRetiredKinds(t *testing.T) {
	for _, kind := range []string{"pool", "retile"} {
		dump := `{"flight":"v1","source":"gpu","reason":"watchdog","recorded":2,"dropped":0}
{"seq":0,"cycle":512,"kind":"checkpoint","a":9,"b":0,"c":0}
{"seq":1,"cycle":1024,"kind":"` + kind + `","a":1,"b":0,"c":4}
`
		_, _, err := ReadDump(strings.NewReader(dump))
		if err == nil || !strings.Contains(err.Error(), `"`+kind+`"`) || !strings.Contains(err.Error(), "line 3") {
			t.Errorf("a dump holding a %q event: error %v, want one naming the kind and its line", kind, err)
		}
	}
}

func TestKindStringsRoundTrip(t *testing.T) {
	for k := KindPhase; k <= KindPanic; k++ {
		got, ok := kindByName(k.String())
		if !ok || got != k {
			t.Fatalf("kind %d (%s) does not round-trip", k, k)
		}
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
