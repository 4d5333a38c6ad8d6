package telemetry

import (
	"strings"
	"testing"

	"gpgpunoc/internal/mesh"
)

func TestRenderPrometheusStructuredFamilies(t *testing.T) {
	m := mesh.New(8, 8)
	reg := NewRegistry()
	sp := newSpine(m)
	sp.Stall[StallCredit] = 5
	np := NewNetProbes(reg, m, "", sp)
	link := mesh.Link{From: 0, Dir: mesh.East}
	sp.Link[0][m.LinkIndex(link)] = 42
	np.VCOccupancy(link, 0, func() int64 { return 3 })
	sp.Inj[9] = 7
	np.InjQueue(9, func() int64 { return 2 })
	np.LatencyHistogram("read", SegReqNet).Observe(20)
	reg.Counter("some.unknown.probe", Desc{}).Add(1)

	out := string(reg.RenderPrometheus())
	for _, want := range []string{
		// Mesh coordinates: node 1 is row 0 col 1, node 9 is row 1 col 1.
		`noc_link_flits_total{from="0",from_row="0",from_col="0",to="1",to_row="0",to_col="1",class="request"} 42`,
		`noc_link_vc_occupancy_flits{from="0",from_row="0",from_col="0",to="1",to_row="0",to_col="1",vc="0"} 3`,
		`noc_node_injected_flits_total{node="9",node_row="1",node_col="1"} 7`,
		`noc_node_injq_flits{node="9",node_row="1",node_col="1"} 2`,
		`noc_stall_cycles_total{cause="credit"} 5`,
		`probe{name="some.unknown.probe"} 1`,
		"# TYPE noc_link_flits_total counter",
		"# TYPE noc_node_injq_flits gauge",
		"# TYPE noc_latency_cycles histogram",
		`noc_latency_cycles_bucket{kind="read",segment="reqnet",le="32"} 1`,
		`noc_latency_cycles_bucket{kind="read",segment="reqnet",le="+Inf"} 1`,
		`noc_latency_cycles_sum{kind="read",segment="reqnet"} 20`,
		`noc_latency_cycles_count{kind="read",segment="reqnet"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Deterministic: two renders are byte-identical.
	if out != string(reg.RenderPrometheus()) {
		t.Fatal("exposition is not deterministic")
	}
}

func TestRenderPrometheusSubnetLabels(t *testing.T) {
	m := mesh.New(2, 2)
	reg := NewRegistry()
	req, rep := newSpine(m), newSpine(m)
	req.Stall[StallVCAlloc], rep.Stall[StallVCAlloc] = 2, 3
	NewNetProbes(reg, m, "req.", req)
	NewNetProbes(reg, m, "rep.", rep)
	out := string(reg.RenderPrometheus())
	for _, want := range []string{
		`noc_stall_cycles_total{subnet="req",cause="vcalloc"} 2`,
		`noc_stall_cycles_total{subnet="rep",cause="vcalloc"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestRenderPrometheusCumulativeBuckets(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h", Desc{Family: "h_cycles"}, ExpBounds(8, 2, 3)) // bounds 8,16,32
	for _, v := range []int64{4, 4, 12, 100} {
		h.Observe(v)
	}
	out := string(reg.RenderPrometheus())
	for _, want := range []string{
		`h_cycles_bucket{le="8"} 2`, `h_cycles_bucket{le="16"} 3`, `h_cycles_bucket{le="32"} 3`,
		`h_cycles_bucket{le="+Inf"} 4`, "h_cycles_sum 120", "h_cycles_count 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("cumulative buckets wrong: missing %q in\n%s", want, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("g", Desc{Family: "g", Labels: []string{"name", `a"b\c` + "\n", "empty", ""}})
	if out, want := string(reg.RenderPrometheus()), `g{name="a\"b\\c\n"} 0`+"\n"; !strings.HasSuffix(out, want) {
		t.Fatalf("exposition %q does not end in %q", out, want)
	}
}
