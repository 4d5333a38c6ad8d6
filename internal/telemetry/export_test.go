package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// TestJSONLRoundTrip: the epoch records of series.jsonl read back as
// written.
func TestJSONLRoundTrip(t *testing.T) {
	tel := New(50)
	c := tel.Reg.Counter("flits", Desc{})
	g := tel.Reg.Gauge("depth", Desc{})
	h := tel.Reg.Histogram("lat", Desc{}, []int64{8, 64})
	for cycle := int64(1); cycle <= 120; cycle++ {
		c.Inc()
		g.Set(cycle % 7)
		tel.MaybeSample(cycle)
	}
	h.Observe(3)
	h.Observe(100)
	tel.Flush(120)

	var buf bytes.Buffer
	if err := tel.WriteJSONL(&buf, nil); err != nil {
		t.Fatal(err)
	}
	ex, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ex.EpochLen != 50 {
		t.Errorf("EpochLen = %d", ex.EpochLen)
	}
	if !reflect.DeepEqual(ex.Names, tel.Reg.ScalarNames()) {
		t.Errorf("Names = %v", ex.Names)
	}
	if !reflect.DeepEqual(ex.Kinds, []string{"counter", "gauge"}) {
		t.Errorf("Kinds = %v", ex.Kinds)
	}
	if !reflect.DeepEqual(ex.Samples, tel.Samples()) {
		t.Errorf("Samples = %v, want %v", ex.Samples, tel.Samples())
	}
	if len(ex.Histograms) != 1 {
		t.Fatalf("%d histograms", len(ex.Histograms))
	}
	eh := ex.Histograms[0]
	bounds, counts := h.Buckets()
	if eh.Name != "lat" || !reflect.DeepEqual(eh.Bounds, bounds) ||
		!reflect.DeepEqual(eh.Counts, counts) ||
		eh.Count != 2 || eh.Sum != 103 || eh.Min != 3 || eh.Max != 100 {
		t.Errorf("histogram round-trip = %+v", eh)
	}
	if len(ex.Packets) != 0 {
		t.Errorf("%d packets read back from a series without spans", len(ex.Packets))
	}
}

// TestSpansJSONLRoundTrip: the span records of series.jsonl — the
// sampler in the header and one packet line per traced packet — read
// back as written.
func TestSpansJSONLRoundTrip(t *testing.T) {
	tel := New(50)
	tel.Reg.Counter("flits", Desc{}).Inc()
	tel.Flush(10)
	sp := buildTracedPair(t)

	var buf bytes.Buffer
	if err := tel.WriteJSONL(&buf, sp); err != nil {
		t.Fatal(err)
	}
	ex, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Seed != sp.seed || ex.Rate != sp.rate {
		t.Errorf("span sampler (%d, %v) read back as (%d, %v)", sp.seed, sp.rate, ex.Seed, ex.Rate)
	}
	if !reflect.DeepEqual(ex.Packets, sp.Traces()) {
		t.Errorf("packets read back as %+v, want %+v", ex.Packets, sp.Traces())
	}
	if !reflect.DeepEqual(ex.Samples, tel.Samples()) {
		t.Errorf("Samples = %v, want %v", ex.Samples, tel.Samples())
	}
}

// TestReadJSONLErrors: a series.jsonl ReadTrace cannot use is refused,
// naming the line at fault.
func TestReadJSONLErrors(t *testing.T) {
	const header = `{"type":"header","epoch":1,"names":["a","b"],"kinds":["counter","counter"]}` + "\n"
	for name, tc := range map[string]struct{ in, want string }{
		"empty":          {"", "line 1: no header record"},
		"garbage":        {"not json\n", "line 1: invalid character"},
		"kinds mismatch": {`{"type":"header","names":["a"]}` + "\n", "line 1: header has 0 kinds for 1 probes"},
		"unknown type":   {header + `{"type":"zap","cycle":0}` + "\n", "line 2: unexpected \"zap\" record"},
		"second header":  {header + "\n" + header, "line 3: unexpected \"header\" record"},
		"value mismatch": {header + `{"type":"sample","cycle":1,"values":[1]}` + "\n", "line 2: sample has 1 values for 2 probes"},
	} {
		_, err := ReadTrace(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

// TestReadTraceRejectsBadPacketRecords: a packet record ReadTrace cannot
// use is refused, naming the line at fault.
func TestReadTraceRejectsBadPacketRecords(t *testing.T) {
	const header = `{"type":"header","epoch":1,"names":["a"],"kinds":["counter"],"seed":9,"rate":1}` + "\n"
	for name, tc := range map[string]struct{ in, want string }{
		"packet before header": {`{"type":"packet","id":1}` + "\n", "line 1: the header must come first"},
		"bad packet event":     {header + `{"type":"packet","events":[{"k":"hop"}]}` + "\n", "line 2: json"},
		"bad record line":      {header + `{"type":"packet","id":1}` + "\nnot-json\n", "line 3: invalid character"},
	} {
		_, err := ReadTrace(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", name, err, tc.want)
		}
	}
}

func TestHeatmapCSVRoundTrip(t *testing.T) {
	m := mesh.New(2, 2)
	tel := New(10)
	sp := newSpine(m)
	NewNetProbes(tel.Reg, m, "", sp)

	// Traffic on the N0->N1 link: 6 request flits, 14 reply flits.
	east := mesh.Link{From: 0, Dir: mesh.East}
	sp.Link[packet.Request][m.LinkIndex(east)] = 6
	sp.Link[packet.Reply][m.LinkIndex(east)] = 14
	tel.Flush(100)

	var buf bytes.Buffer
	if err := tel.writeHeatmap(&buf, m); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"from_row", "from_col", "to_row", "to_col", "dir",
		"request_flits", "reply_flits", "total_flits", "utilization"}
	if !reflect.DeepEqual(rows[0], want) {
		t.Fatalf("header = %v", rows[0])
	}
	if len(rows)-1 != len(m.Links()) {
		t.Fatalf("%d data rows for %d links", len(rows)-1, len(m.Links()))
	}
	// Every link row cross-checks against the registry's probe values.
	found := false
	for _, row := range rows[1:] {
		fr, _ := strconv.Atoi(row[0])
		fc, _ := strconv.Atoi(row[1])
		from := m.ID(mesh.Coord{Row: fr, Col: fc})
		var dir mesh.Direction
		for d := mesh.North; d <= mesh.West; d++ {
			if d.String() == row[4] {
				dir = d
			}
		}
		l := mesh.Link{From: from, Dir: dir}
		stem := LinkName(m, l)
		req, _ := tel.Reg.Value(stem + ".request.flits")
		rep, _ := tel.Reg.Value(stem + ".reply.flits")
		if row[5] != fmt.Sprint(req) || row[6] != fmt.Sprint(rep) || row[7] != fmt.Sprint(req+rep) {
			t.Errorf("link %s: row %v does not match probes req=%d rep=%d", stem, row, req, rep)
		}
		if from == 0 && dir == mesh.East {
			found = true
			if row[5] != "6" || row[6] != "14" || row[7] != "20" || row[8] != "0.2000" {
				t.Errorf("N0->N1 row = %v", row)
			}
		}
	}
	if !found {
		t.Error("no row for the N0->N1 link")
	}
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tel := New(10)
	c := tel.Reg.Counter("net.stall.credit", Desc{})
	g := tel.Reg.Gauge("mc.0.queue_depth", Desc{})
	tel.Reg.Counter("link.N0->N1.request.flits", Desc{}) // dropped by the default filter
	for cycle := int64(1); cycle <= 30; cycle++ {
		c.Inc()
		if cycle%10 == 0 {
			g.Set(cycle)
		}
		tel.MaybeSample(cycle)
	}

	var buf bytes.Buffer
	if err := tel.writeChrome(&buf, nil); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    int64          `json:"ts"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(tr.TraceEvents) == 0 || tr.TraceEvents[0].Phase != "M" {
		t.Fatal("missing metadata event")
	}
	counterVals := map[int64]float64{}
	gaugeVals := map[int64]float64{}
	for _, e := range tr.TraceEvents[1:] {
		if e.Phase != "C" {
			t.Fatalf("unexpected phase %q", e.Phase)
		}
		if strings.Contains(e.Name, "link.") {
			t.Fatalf("filtered probe %q leaked into the trace", e.Name)
		}
		switch e.Name {
		case "net.stall.credit":
			counterVals[e.TS] = e.Args["value"].(float64)
		case "mc.0.queue_depth":
			gaugeVals[e.TS] = e.Args["value"].(float64)
		}
	}
	// Counters are per-epoch deltas (10 increments per epoch), with no event
	// for the first sample; gauges are absolute sampled levels.
	if len(counterVals) != 2 || counterVals[20] != 10 || counterVals[30] != 10 {
		t.Errorf("counter events = %v", counterVals)
	}
	if len(gaugeVals) != 3 || gaugeVals[10] != 10 || gaugeVals[20] != 20 || gaugeVals[30] != 30 {
		t.Errorf("gauge events = %v", gaugeVals)
	}
}

// TestChromeTraceIsValidAndNested: with spans attached, trace.json holds
// one track per sampled packet in a process of its own, each named by a
// metadata event, with the lifetime, hop, stall and service spans nested
// on it beside the counter tracks.
func TestChromeTraceIsValidAndNested(t *testing.T) {
	tel := New(100)
	tel.Reg.Counter("net.stall.vcalloc", Desc{})
	tel.Flush(100)
	tel.Flush(250)
	var buf bytes.Buffer
	if err := tel.writeChrome(&buf, buildTracedPair(t)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  *int64 `json:"dur"`
			PID  int    `json:"pid"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	tids := map[int]bool{}
	for _, e := range doc.TraceEvents {
		names[e.Ph+":"+e.Name] = true
		if e.Ph == "X" && e.Dur == nil {
			t.Fatalf("complete event %q has no duration", e.Name)
		}
		if e.PID == 2 && e.Name != "process_name" {
			tids[e.TID] = true
		}
		if e.PID == 2 && e.Ph == "C" || e.PID == 1 && e.Ph == "X" {
			t.Fatalf("event %+v in the wrong process", e)
		}
	}
	// One track per packet (request + reply), each named via metadata.
	if len(tids) != 2 {
		t.Fatalf("got tracks %v, want 2 (request + reply)", tids)
	}
	for _, want := range []string{
		"C:net.stall.vcalloc", "M:thread_name", "X:READ-REQUEST", "X:READ-REPLY", "X:srcqueue",
		"X:N0->N8 vc0", "X:stall:vcalloc@N8", "X:dram", "X:mc.service",
		"i:dram issue bank3 hit",
	} {
		if !names[want] {
			t.Fatalf("chrome trace missing %q; have %v", want, names)
		}
	}
}

func TestValidateEpoch(t *testing.T) {
	for _, e := range []int64{0, -1} {
		if err := ValidateEpoch(e); err == nil {
			t.Errorf("epoch %d accepted", e)
		}
	}
	if err := ValidateEpoch(1); err != nil {
		t.Errorf("epoch 1 rejected: %v", err)
	}
}

func TestValidateRate(t *testing.T) {
	for _, r := range []float64{0, -0.5, 1.5, math.NaN()} {
		if err := ValidateRate(r); err == nil {
			t.Errorf("rate %v accepted", r)
		}
	}
	for _, r := range []float64{0.001, 0.5, 1} {
		if err := ValidateRate(r); err != nil {
			t.Errorf("rate %v rejected: %v", r, err)
		}
	}
}

// FuzzReadTrace: ReadTrace never panics, whatever it is given, and every
// error it returns names the line at fault. The seed corpus under
// testdata/fuzz/FuzzReadTrace runs with every plain go test.
func FuzzReadTrace(f *testing.F) {
	lineRef := regexp.MustCompile(`^telemetry: series line [1-9][0-9]*: `)
	f.Fuzz(func(t *testing.T, in []byte) {
		tr, err := ReadTrace(bytes.NewReader(in))
		if err != nil {
			if !lineRef.MatchString(err.Error()) {
				t.Fatalf("error does not name its line: %v", err)
			}
			return
		}
		for _, s := range tr.Samples {
			if len(s.Values) != len(tr.Names) {
				t.Fatalf("sample at cycle %d has %d values for %d probes", s.Cycle, len(s.Values), len(tr.Names))
			}
		}
	})
}
