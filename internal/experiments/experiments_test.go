package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
)

// quick options: a 3-benchmark subset at reduced cycles keeps the whole
// figure pipeline testable in seconds; full-scale numbers are produced by
// cmd/experiments. The tests share the result memo, and with it the
// baseline runs their benchmark lists have in common.
func quick(benchmarks ...string) Opts {
	if len(benchmarks) == 0 {
		benchmarks = []string{"CP", "RAY", "KMN"}
	}
	return Opts{Benchmarks: benchmarks, WarmupCycles: 1000, MeasureCycles: 5000}
}

// cell parses a numeric table cell.
func cell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(tab.Rows[row][col], "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell (%d,%d) = %q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

func findRow(t *testing.T, tab *Table, label string) int {
	t.Helper()
	for i, r := range tab.Rows {
		if r[0] == label {
			return i
		}
	}
	t.Fatalf("table %s has no row %q", tab.ID, label)
	return -1
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{1, 4}); math.Abs(g-2) > 1e-12 {
		t.Errorf("geomean(1,4) = %v", g)
	}
	if g := geomean(nil); g != 0 {
		t.Errorf("geomean(nil) = %v", g)
	}
	if g := geomean([]float64{0, 4}); g <= 0 {
		t.Errorf("geomean with zero should clamp, got %v", g)
	}
}

func TestTableFormat(t *testing.T) {
	tab := &Table{ID: "X", Title: "t", Columns: []string{"a", "bb"},
		Rows: [][]string{{"1", "2"}}, Notes: []string{"n"}}
	s := tab.String()
	for _, want := range []string{"== X: t ==", "a", "bb", "note: n"} {
		if !strings.Contains(s, want) {
			t.Errorf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestFig2ShapesHold(t *testing.T) {
	tab, err := Fig2(quick("CP", "RAY", "KMN", "RED"))
	if err != nil {
		t.Fatal(err)
	}
	// RAY must invert (reply < request); read-heavy KMN must exceed 1.5.
	if v := cell(t, tab, findRow(t, tab, "RAY"), 2); v >= 1.2 {
		t.Errorf("RAY reply:request = %v, want < 1.2 (write demand inverts it)", v)
	}
	if v := cell(t, tab, findRow(t, tab, "KMN"), 2); v < 1.5 {
		t.Errorf("KMN reply:request = %v, want > 1.5", v)
	}
}

func TestFig3SharesSum(t *testing.T) {
	tab, err := Fig3(quick("KMN", "RAY"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"KMN", "RAY"} {
		r := findRow(t, tab, b)
		sum := 0.0
		for c := 1; c <= 4; c++ {
			sum += cell(t, tab, r, c)
		}
		if math.Abs(sum-100) > 0.5 {
			t.Errorf("%s shares sum to %v%%", b, sum)
		}
	}
	// Read replies dominate the read-heavy benchmark's flits.
	if v := cell(t, tab, findRow(t, tab, "KMN"), 3); v < 40 {
		t.Errorf("KMN read-reply share = %v%%, want the largest component", v)
	}
}

func TestFig4AnalyticAgreement(t *testing.T) {
	tab, err := Fig4(Opts{MeasureCycles: 15000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 10 {
		t.Fatalf("fig4 rows = %d", len(tab.Rows))
	}
	// The note carries the worst deviation; parse and bound it.
	note := tab.Notes[0]
	f := strings.Fields(note)
	worst, err := strconv.ParseFloat(strings.TrimSuffix(f[len(f)-1], "%"), 64)
	if err != nil {
		t.Fatalf("parsing note %q: %v", note, err)
	}
	if worst > 1.5 {
		t.Errorf("worst analytic-vs-simulated deviation %v%% too large", worst)
	}
}

func TestTable1Ordering(t *testing.T) {
	tab, err := Table1(Opts{})
	if err != nil {
		t.Fatal(err)
	}
	get := func(p string) float64 { return cell(t, tab, findRow(t, tab, p), 5) }
	bottom, edge, tb, dia := get("bottom"), get("edge"), get("top-bottom"), get("diamond")
	if !(bottom > edge && edge > tb && tb > dia) {
		t.Errorf("hop ordering: %v %v %v %v", bottom, edge, tb, dia)
	}
}

func TestFig7Ordering(t *testing.T) {
	tab, err := Fig7(quick("KMN", "RED", "SRAD"))
	if err != nil {
		t.Fatal(err)
	}
	g := findRow(t, tab, "Geomean")
	xy, yx, xyyx := cell(t, tab, g, 1), cell(t, tab, g, 2), cell(t, tab, g, 3)
	if xy != 1 {
		t.Errorf("baseline column = %v, want 1", xy)
	}
	if !(yx > 1.05 && xyyx > yx) {
		t.Errorf("Fig7 geomeans: YX=%v XY-YX=%v; want XY < YX < XY-YX", yx, xyyx)
	}
}

func TestFig8MonopolizingHelps(t *testing.T) {
	tab, err := Fig8(quick("KMN", "RED", "SRAD"))
	if err != nil {
		t.Fatal(err)
	}
	g := findRow(t, tab, "Geomean")
	xyMono, yxMono, xyyxPM := cell(t, tab, g, 2), cell(t, tab, g, 3), cell(t, tab, g, 4)
	if xyMono <= 1.0 {
		t.Errorf("XY monopolized = %v, want > 1", xyMono)
	}
	if yxMono <= xyMono {
		t.Errorf("YX mono (%v) should beat XY mono (%v)", yxMono, xyMono)
	}
	if xyyxPM <= 1.2 {
		t.Errorf("XY-YX partial = %v, want a material gain", xyyxPM)
	}
}

func TestFig9ProposedBeatsDiamond(t *testing.T) {
	tab, err := Fig9(quick("KMN", "RED", "SRAD"))
	if err != nil {
		t.Fatal(err)
	}
	g := findRow(t, tab, "Geomean")
	cols := tab.Columns
	idx := func(label string) int {
		for i, c := range cols {
			if c == label {
				return i
			}
		}
		t.Fatalf("no column %q", label)
		return -1
	}
	diamond := cell(t, tab, g, idx("Diamond (XY)"))
	best := cell(t, tab, g, idx("Bottom (YX FM)"))
	if diamond <= 1.0 {
		t.Errorf("diamond placement = %v, should beat bottom+XY", diamond)
	}
	if best <= 1.3 {
		t.Errorf("bottom YX FM = %v, should materially beat the baseline", best)
	}
	// The paper's headline has bottom+YX+FM beating diamond by ~7%; in this
	// reproduction the two land within a few percent of each other at full
	// scale (see EXPERIMENTS.md), and this reduced-scale test only asserts
	// competitiveness: warmup bias at short windows penalizes the deeper
	// bottom-placement pipeline.
	if best < 0.8*diamond {
		t.Errorf("bottom YX FM (%v) should be competitive with diamond (%v)", best, diamond)
	}
}

func TestFig10RunsAndNormalizes(t *testing.T) {
	tab, err := Fig10(quick("KMN", "SCL"))
	if err != nil {
		t.Fatal(err)
	}
	g := findRow(t, tab, "Geomean")
	if v := cell(t, tab, g, 1); v != 1 {
		t.Errorf("baseline column = %v", v)
	}
	if v := cell(t, tab, g, 2); v < 0.9 || v > 1.5 {
		t.Errorf("asymmetric partition geomean = %v; expected near or above 1", v)
	}
}

func TestNetworkDivisionClose(t *testing.T) {
	tab, err := NetworkDivision(quick("KMN", "LPS"))
	if err != nil {
		t.Fatal(err)
	}
	g := findRow(t, tab, "Geomean")
	// Against the doubled-wire dual, the single net with VC separation is
	// competitive (the paper's Section 4.2 point).
	if v := cell(t, tab, g, 4); v < 0.8 || v > 1.4 {
		t.Errorf("single/dual2x = %v, want close to 1", v)
	}
	// Against an equal wire budget, the single net must win: split physical
	// wires cannot be shared across the asymmetric classes.
	if v := cell(t, tab, g, 5); v <= 1.0 {
		t.Errorf("single/dualEq = %v, want > 1", v)
	}
}

func TestRunnersComplete(t *testing.T) {
	if len(Runners()) != 13 {
		t.Errorf("runner count = %d", len(Runners()))
	}
	if _, err := ByID("fig7"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestSweepProducesCurves(t *testing.T) {
	tab, err := Sweep(Opts{MeasureCycles: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 8 || len(tab.Columns) != 5 {
		t.Fatalf("sweep table shape %dx%d", len(tab.Rows), len(tab.Columns))
	}
	for _, r := range tab.Rows {
		for _, c := range r[1:] {
			if c == "DEADLOCK" {
				t.Errorf("safe sweep variant deadlocked at rate %s", r[0])
			}
		}
	}
}

func TestScalingHoldsAcrossMeshes(t *testing.T) {
	tab, err := Scaling(Opts{Benchmarks: []string{"KMN"}, WarmupCycles: 800, MeasureCycles: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("scaling rows = %d", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		sp, err := strconv.ParseFloat(strings.TrimSuffix(r[5], "x"), 64)
		if err != nil {
			t.Fatal(err)
		}
		if sp <= 1.0 {
			t.Errorf("mesh %s: proposed design speedup %v <= 1", r[0], sp)
		}
	}
}

func TestSummaryFormat(t *testing.T) {
	res, err := gpu.Run(context.Background(), quick("CP").apply(mustDefault()), "CP", gpu.Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	s := Summary(res)
	for _, want := range []string{"benchmark=CP", "ipc=", "l1_miss=", "net_throughput=", "hottest_link="} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func mustDefault() config.Config { return config.Default() }
