package telemetry

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

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
	if err := tel.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	ex, err := ReadJSONL(&buf)
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
}

func TestReadJSONLErrors(t *testing.T) {
	for name, in := range map[string]string{
		"garbage":        "not json\n",
		"unknown type":   `{"type":"zap","cycle":0}` + "\n",
		"value mismatch": `{"type":"header","epoch":1,"names":["a","b"],"kinds":["counter","counter"]}` + "\n" + `{"type":"sample","cycle":1,"values":[1]}` + "\n",
	} {
		if _, err := ReadJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
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
	if err := tel.WriteHeatmapCSV(&buf, m); err != nil {
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
	if err := tel.WriteChromeTrace(&buf, nil); err != nil {
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
