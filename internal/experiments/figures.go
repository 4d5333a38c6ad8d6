package experiments

import (
	"fmt"
	"sort"

	"gpgpunoc/internal/analytic"
	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/synthetic"
)

// Fig2 reproduces Figure 2: normalized traffic volumes between cores and
// MCs per benchmark under the baseline system. Request volume is normalized
// to 1; the reply bar shows the reply:request flit ratio, whose geomean the
// paper reports as ~2 with RAY inverted.
func Fig2(o Opts) (*Table, error) {
	base := o.apply(config.Default())
	var jobs []job
	for _, b := range o.benchmarks() {
		jobs = append(jobs, job{key: b, bench: b, cfg: base})
	}
	results, err := runAll(jobs, o.Parallel)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "Fig2",
		Title:   "Normalized traffic volumes between cores and MCs (request = 1.0)",
		Columns: []string{"Benchmark", "Core-to-MC (Request)", "MC-to-Core (Reply)", "Flits/cycle (req)", "Flits/cycle (rep)"},
	}
	var ratios []float64
	for _, b := range o.benchmarks() {
		st := results[b].Net
		req := float64(st.ClassFlits(packet.Request))
		rep := float64(st.ClassFlits(packet.Reply))
		ratio := 0.0
		if req > 0 {
			ratio = rep / req
		}
		ratios = append(ratios, ratio)
		cyc := float64(st.Cycles)
		t.Rows = append(t.Rows, []string{b, f2(1), f2(ratio), f3(req / cyc), f3(rep / cyc)})
	}
	t.Rows = append(t.Rows, []string{"Geomean", f2(1), f2(geomean(ratios)), "", ""})
	t.Notes = append(t.Notes, "paper: reply volume ~2x request on average; RAY inverts due to write demand")
	return t, nil
}

// Fig3 reproduces Figure 3: flit-weighted packet type distribution per
// benchmark (the paper reports ~63% read replies on average).
func Fig3(o Opts) (*Table, error) {
	base := o.apply(config.Default())
	var jobs []job
	for _, b := range o.benchmarks() {
		jobs = append(jobs, job{key: b, bench: b, cfg: base})
	}
	results, err := runAll(jobs, o.Parallel)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Fig3",
		Title: "Packet type distribution (share of flits)",
		Columns: []string{"Benchmark", packet.ReadRequest.String(), packet.WriteRequest.String(),
			packet.ReadReply.String(), packet.WriteReply.String()},
	}
	var rr []float64
	for _, b := range o.benchmarks() {
		sh := results[b].Net.FlitShare()
		rr = append(rr, sh[packet.ReadReply])
		t.Rows = append(t.Rows, []string{b,
			pct(sh[packet.ReadRequest]), pct(sh[packet.WriteRequest]),
			pct(sh[packet.ReadReply]), pct(sh[packet.WriteReply])})
	}
	mean := 0.0
	for _, v := range rr {
		mean += v
	}
	mean /= float64(len(rr))
	t.Rows = append(t.Rows, []string{"Mean", "", "", pct(mean), ""})
	t.Notes = append(t.Notes, "paper: ~63% of flits are read replies on average")
	return t, nil
}

// Fig4 reproduces the Figure 4 / Equation 2 link-load analysis: analytic
// route-count coefficients versus flit counts measured by the cycle-level
// simulator under uniform synthetic traffic with bottom MCs and XY routing.
func Fig4(o Opts) (*Table, error) {
	p := synthetic.DefaultParams()
	p.InjectionRate = 0.02
	if o.Seed != 0 {
		p.Seed = o.Seed
	}
	h, err := synthetic.New(p)
	if err != nil {
		return nil, err
	}
	warm, meas := 2000, 30000
	if o.MeasureCycles > 0 {
		meas = o.MeasureCycles
	}
	st, dead := h.Run(warm, meas)
	if dead {
		return nil, fmt.Errorf("fig4: unexpected deadlock")
	}
	m := mesh.New(p.NoC.Width, p.NoC.Height)
	pl := placement.MustNew(p.Placement, m, p.NumMCs)
	ll := analytic.ComputeLinkLoad(m, pl, routing.MustNew(p.NoC.Routing))

	var anaTotal, measTotal [packet.NumClasses]float64
	for _, l := range m.Links() {
		for c := packet.Class(0); c < packet.NumClasses; c++ {
			anaTotal[c] += float64(ll.RouteCount(l, c))
			measTotal[c] += float64(st.LinkFlits[c][m.LinkIndex(l)])
		}
	}

	t := &Table{
		ID:      "Fig4",
		Title:   "Link loads: analytic coefficients (Eq.2) vs simulation, bottom MCs + XY",
		Columns: []string{"Link", "Class", "Analytic share", "Simulated share", "Delta"},
	}
	// Report the ten hottest links per class plus the worst deviation.
	worst := 0.0
	type entry struct {
		l     mesh.Link
		c     packet.Class
		ana   float64
		meas  float64
		delta float64
	}
	var entries []entry
	for _, l := range m.Links() {
		for c := packet.Class(0); c < packet.NumClasses; c++ {
			ana := float64(ll.RouteCount(l, c)) / anaTotal[c]
			ms := 0.0
			if measTotal[c] > 0 {
				ms = float64(st.LinkFlits[c][m.LinkIndex(l)]) / measTotal[c]
			}
			d := ana - ms
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
			entries = append(entries, entry{l, c, ana, ms, d})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ana > entries[j].ana })
	for _, e := range entries[:10] {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%v->%s", m.Coord(e.l.From), e.l.Dir), e.c.String(),
			pct(e.ana), pct(e.meas), pct(e.delta)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("worst per-link share deviation over all links and classes: %s", pct(worst)))
	return t, nil
}

// table1Placements are Table 1's rows, in the paper's order of decreasing
// average hops.
var table1Placements = []config.Placement{
	config.PlacementBottom, config.PlacementEdge, config.PlacementTopBottom, config.PlacementDiamond,
}

// Table1 reproduces Table 1: aggregated vertical/horizontal hops per MC
// placement — the paper's closed forms next to exact enumeration (Eq. 3) —
// on the paper's 8x8 mesh with 8 MCs.
func Table1(Opts) (*Table, error) {
	const n = 8
	m := mesh.New(n, n)
	t := &Table{
		ID:      "Table1",
		Title:   fmt.Sprintf("Average hops per MC placement (%dx%d mesh, %d MCs)", n, n, n),
		Columns: []string{"Placement", "Hvert (form)", "Hhori (form)", "Hvert (exact)", "Hhori (exact)", "Avg hops (Eq.3)"},
	}
	for _, sch := range table1Placements {
		pl, err := placement.New(sch, m, n)
		if err != nil {
			return nil, err
		}
		avg, vert, hori := pl.AverageHops()
		fv, fh, exact := placement.Table1(sch, n)
		mark := ""
		if !exact {
			mark = "~"
		}
		t.Rows = append(t.Rows, []string{string(sch),
			mark + fmt.Sprintf("%.0f", fv), mark + fmt.Sprintf("%.0f", fh),
			fmt.Sprintf("%d", vert), fmt.Sprintf("%d", hori), f3(avg)})
	}
	t.Notes = append(t.Notes,
		"paper ordering by decreasing average hops: bottom, edge, top-bottom, diamond",
		"~ marks the closed forms the paper itself flags as approximate")
	return t, nil
}

// Hops extends Table 1 across mesh sizes: the exact Equation 3 average hops
// of each placement on an NxN mesh with N MCs. The sizes are multiples of 4
// because edge placement needs a multiple of 4 MCs.
func Hops(Opts) (*Table, error) {
	t := &Table{
		ID:      "Hops",
		Title:   "Average hops (exact Eq.3) across mesh sizes (NxN mesh, N MCs)",
		Columns: []string{"N"},
	}
	for _, sch := range table1Placements {
		t.Columns = append(t.Columns, string(sch))
	}
	for _, n := range []int{4, 8, 12, 16} {
		m := mesh.New(n, n)
		row := []string{fmt.Sprintf("%d", n)}
		for _, sch := range table1Placements {
			pl, err := placement.New(sch, m, n)
			if err != nil {
				return nil, err
			}
			avg, _, _ := pl.AverageHops()
			row = append(row, f3(avg))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig7 reproduces Figure 7: speedup of YX and XY-YX over the XY baseline
// with bottom MCs and split VCs (paper: 1.393 and 1.647 geomean).
func Fig7(o Opts) (*Table, error) {
	schemes := []core.Scheme{core.Baseline, core.YXSplit, core.XYYXSplit}
	ipc, err := runSchemes(o, config.Default(), schemes)
	if err != nil {
		return nil, err
	}
	t := normalizedTable("Fig7", "Speed-up with routing algorithms (normalized to baseline XY)", o, ipc, schemes)
	t.Notes = append(t.Notes, "paper geomeans: YX 1.393, XY-YX 1.647")
	return t, nil
}

// Fig8 reproduces Figure 8: the VC monopolizing schemes against the XY
// baseline (paper: XY-mono 1.438, YX-mono 1.889, XY-YX partial 1.854).
func Fig8(o Opts) (*Table, error) {
	schemes := []core.Scheme{core.Baseline, core.XYMonopolized, core.YXMonopolized, core.XYYXPartialMono}
	ipc, err := runSchemes(o, config.Default(), schemes)
	if err != nil {
		return nil, err
	}
	t := normalizedTable("Fig8", "Speed-up with VC monopolized schemes (normalized to XY + split VCs)", o, ipc, schemes)
	t.Notes = append(t.Notes, "paper geomeans: XY(mono) 1.438, YX(mono) 1.889, XY-YX(partial) 1.854")
	return t, nil
}

// Fig9Schemes are the eight Figure 9 configurations: each placement with XY
// + split VCs, and each placement with its best routing plus (partial/full)
// monopolizing. Exported because they span the whole design space (every
// placement, routing, and VC policy family), which makes them the coverage
// set for the stepper-equivalence suite.
func Fig9Schemes() []core.Scheme {
	return []core.Scheme{
		core.Baseline, // Bottom (XY) — the normalization base
		{Label: "Edge (XY)", Placement: config.PlacementEdge, Routing: config.RoutingXY, VCPolicy: config.VCSplit},
		{Label: "Diamond (XY)", Placement: config.PlacementDiamond, Routing: config.RoutingXY, VCPolicy: config.VCSplit},
		{Label: "Top-Bottom (XY)", Placement: config.PlacementTopBottom, Routing: config.RoutingXY, VCPolicy: config.VCSplit},
		{Label: "Edge (XY-YX PM)", Placement: config.PlacementEdge, Routing: config.RoutingXYYX, VCPolicy: config.VCPartialMonopolized},
		{Label: "Diamond (XY PM)", Placement: config.PlacementDiamond, Routing: config.RoutingXY, VCPolicy: config.VCPartialMonopolized},
		{Label: "Top-Bottom (XY-YX PM)", Placement: config.PlacementTopBottom, Routing: config.RoutingXYYX, VCPolicy: config.VCPartialMonopolized},
		{Label: "Bottom (YX FM)", Placement: config.PlacementBottom, Routing: config.RoutingYX, VCPolicy: config.VCMonopolized},
	}
}

// Fig9 reproduces Figure 9: MC placements x routing algorithms, with and
// without monopolizing, normalized to bottom+XY. The paper's headline:
// Bottom (YX FM) reaches 1.894 and beats the best distributed placement.
func Fig9(o Opts) (*Table, error) {
	schemes := Fig9Schemes()
	ipc, err := runSchemes(o, config.Default(), schemes)
	if err != nil {
		return nil, err
	}
	t := normalizedTable("Fig9", "Speed-up with MC placements and routing (normalized to bottom MC + XY)", o, ipc, schemes)
	t.Notes = append(t.Notes,
		"paper geomeans: edge 1.65(+PM), diamond 1.76(+PM), top-bottom 1.87(+PM), bottom YX FM 1.89",
		"the proposed bottom+YX+FM outperforms the best prior placement (diamond) by ~25%")
	return t, nil
}

// Fig10 reproduces Figure 10: asymmetric VC partitioning (1 request : 3
// reply) versus the symmetric 2:2 split with 4 VCs per port under XY-YX
// routing (paper: +3.9% geomean).
func Fig10(o Opts) (*Table, error) {
	base := config.Default()
	base.NoC.VCsPerPort = 4
	base.NoC.Routing = config.RoutingXYYX
	schemes := []core.Scheme{
		{Label: "Baseline (2:2)", Placement: config.PlacementBottom, Routing: config.RoutingXYYX, VCPolicy: config.VCSplit},
		{Label: "VC Partitioned (1:3)", Placement: config.PlacementBottom, Routing: config.RoutingXYYX, VCPolicy: config.VCAsymmetric},
	}
	ipc, err := runSchemes(o, base, schemes)
	if err != nil {
		return nil, err
	}
	t := normalizedTable("Fig10", "Speed-up with asymmetric VC partitioning (4 VCs/port, XY-YX)", o, ipc, schemes)
	t.Notes = append(t.Notes, "paper: +3.9% geomean for 1:3 over 2:2 under XY-YX")
	return t, nil
}

// NetworkDivision reproduces the Section 4.2 "impact of network division"
// comparison: one physical network with split VCs versus two physical
// subnetworks, each dedicated to one class. The dual design is evaluated
// both as prior work builds it — full-width channels, i.e. double the
// router/wire budget (paper: the VC split comes within 0.03% of it) — and
// at an equal wire budget with half-width channels, where the VC split's
// advantage is structural: separated traffic classes cannot use each
// other's dedicated wires.
func NetworkDivision(o Opts) (*Table, error) {
	single := o.apply(config.Default())
	dual2x := single
	dual2x.NoC.PhysicalSubnets = true
	dualEq := dual2x
	dualEq.NoC.SubnetHalfWidth = true

	var jobs []job
	for _, b := range o.benchmarks() {
		jobs = append(jobs,
			job{key: b + "/single", bench: b, cfg: single},
			job{key: b + "/dual2x", bench: b, cfg: dual2x},
			job{key: b + "/dualEq", bench: b, cfg: dualEq})
	}
	results, err := runAll(jobs, o.Parallel)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "Division",
		Title: "Network division: 1 net + VC separation vs 2 physical subnets",
		Columns: []string{"Benchmark", "Single (IPC)", "Dual 2x wires (IPC)",
			"Dual equal wires (IPC)", "Single/Dual2x", "Single/DualEq"},
	}
	var r2x, rEq []float64
	for _, b := range o.benchmarks() {
		s := results[b+"/single"].IPC
		d2, de := results[b+"/dual2x"].IPC, results[b+"/dualEq"].IPC
		ratio := func(d float64) float64 {
			if d > 0 {
				return s / d
			}
			return 0
		}
		r2x = append(r2x, ratio(d2))
		rEq = append(rEq, ratio(de))
		t.Rows = append(t.Rows, []string{b, f3(s), f3(d2), f3(de), f3(ratio(d2)), f3(ratio(de))})
	}
	t.Rows = append(t.Rows, []string{"Geomean", "", "", "", f3(geomean(r2x)), f3(geomean(rEq))})
	t.Notes = append(t.Notes,
		"paper: the logical (VC) division performs within 0.03% of the two-physical-network design",
		"equal-wire physical division wastes bandwidth: request/reply loads cannot share wires")
	return t, nil
}

// Runner executes a named experiment.
type Runner struct {
	ID   string
	Desc string
	Run  func(Opts) (*Table, error)
}

// Runners lists every experiment in paper order.
func Runners() []Runner {
	return []Runner{
		{"fig2", "traffic volumes between cores and MCs", Fig2},
		{"fig3", "packet type distribution", Fig3},
		{"probefig2", "Figure 2 re-derived from the telemetry link probes", ProbeFig2},
		{"fig4", "analytic vs simulated link loads (Eq.2)", Fig4},
		{"table1", "average hops per MC placement", Table1},
		{"hops", "Table 1's exact average hops across mesh sizes", Hops},
		{"fig7", "routing algorithm speedups", Fig7},
		{"fig8", "VC monopolizing speedups", Fig8},
		{"fig9", "MC placement x routing speedups", Fig9},
		{"fig10", "asymmetric VC partitioning", Fig10},
		{"division", "one net + VC split vs two physical nets", NetworkDivision},
		{"sweep", "extension: synthetic latency/throughput curves", Sweep},
		{"scaling", "extension: mesh-size scaling of the proposed design", Scaling},
	}
}

// ByID returns the named runner.
func ByID(id string) (Runner, error) {
	for _, r := range Runners() {
		if r.ID == id {
			return r, nil
		}
	}
	return Runner{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// Summary runs one benchmark under one scheme and formats the headline
// numbers; used by cmd/nocsim.
func Summary(res gpu.Result) string {
	st := res.Net
	req := float64(st.ClassFlits(packet.Request))
	rep := float64(st.ClassFlits(packet.Reply))
	ratio := 0.0
	if req > 0 {
		ratio = rep / req
	}
	hot, hotCount := st.HottestLink()
	return fmt.Sprintf(
		"benchmark=%s ipc=%.3f cycles=%d deadlocked=%v\n"+
			"l1_miss=%.3f l2_miss=%.3f mem_requests=%d\n"+
			"net_throughput=%.3f flits/cycle reply:request=%.2f\n"+
			"req_latency=%s\nrep_latency=%s\nhottest_link=%v (%d flits)",
		res.Benchmark, res.IPC, res.Cycles, res.Deadlocked,
		res.GPU.L1MissRate(), res.GPU.L2MissRate(), res.GPU.MemRequests,
		st.Throughput(), ratio,
		st.NetLatency[packet.Request].String(), st.NetLatency[packet.Reply].String(),
		hot, hotCount)
}
