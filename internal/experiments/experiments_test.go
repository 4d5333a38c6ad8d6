package experiments

import (
	"context"
	"math"
	"slices"
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

// floorsHold fails t for each named target whose floor the tables, keyed
// by runner id, break.
func floorsHold(t *testing.T, tables map[string]*Table, ids ...string) {
	t.Helper()
	for _, id := range ids {
		i := slices.IndexFunc(targets, func(tg target) bool { return tg.id == id })
		if i < 0 {
			t.Fatalf("no target %s", id)
		}
		v, shown, err := targets[i].measure(tables)
		if err != nil {
			t.Fatal(err)
		}
		f := targets[i].relation
		if targets[i].floor != nil {
			f = *targets[i].floor
		}
		if m := f.margin(v); m <= 0 {
			t.Errorf("target %s: want %s (margin %s); measured %s", id, f.desc, percent(m), shown)
		}
	}
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
	floorsHold(t, map[string]*Table{"fig2": tab}, "1")
}

func TestFig3SharesSum(t *testing.T) {
	tab, err := Fig3(quick("KMN", "RAY"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []string{"KMN", "RAY"} {
		sum := 0.0
		for _, c := range tab.Columns[1:] {
			v, err := tab.Cell(b, c)
			if err != nil {
				t.Fatal(err)
			}
			sum += v
		}
		if math.Abs(sum-100) > 0.5 {
			t.Errorf("%s shares sum to %v%%", b, sum)
		}
	}
	floorsHold(t, map[string]*Table{"fig3": tab}, "2")
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
	floorsHold(t, map[string]*Table{"table1": tab}, "3")
}

func TestFig7Ordering(t *testing.T) {
	tab, err := Fig7(quick("KMN", "RED", "SRAD"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tab.Cell("Geomean", tab.Columns[1]); err != nil || v != 1 {
		t.Errorf("baseline column = %v (%v), want 1", v, err)
	}
	floorsHold(t, map[string]*Table{"fig7": tab}, "4")
}

func TestFig8MonopolizingHelps(t *testing.T) {
	tab, err := Fig8(quick("KMN", "RED", "SRAD"))
	if err != nil {
		t.Fatal(err)
	}
	floorsHold(t, map[string]*Table{"fig8": tab}, "5a", "5b")
}

// TestFig9ProposedBeatsDiamond holds the documented band of target 6b: the
// paper has bottom+YX+FM beating diamond's best scheme by ~7%; this
// reproduction trails it by 6-8% at full scale (EXPERIMENTS.md), and warmup
// bias at short windows penalizes the deeper bottom-placement pipeline.
func TestFig9ProposedBeatsDiamond(t *testing.T) {
	tab, err := Fig9(quick("KMN", "RED", "SRAD"))
	if err != nil {
		t.Fatal(err)
	}
	floorsHold(t, map[string]*Table{"fig9": tab}, "6a", "6b")
}

func TestFig10RunsAndNormalizes(t *testing.T) {
	tab, err := Fig10(quick("KMN", "SCL"))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tab.Cell("Geomean", tab.Columns[1]); err != nil || v != 1 {
		t.Errorf("baseline column = %v (%v), want 1", v, err)
	}
	floorsHold(t, map[string]*Table{"fig10": tab}, "7")
}

// TestNetworkDivisionClose: against the doubled-wire dual, the single net
// with VC separation is competitive (the paper's Section 4.2 point);
// against an equal wire budget it must win, since split physical wires
// cannot be shared across the asymmetric classes.
func TestNetworkDivisionClose(t *testing.T) {
	tab, err := NetworkDivision(quick("KMN", "LPS"))
	if err != nil {
		t.Fatal(err)
	}
	floorsHold(t, map[string]*Table{"division": tab}, "8")
}

func TestRunnersComplete(t *testing.T) {
	if len(Runners()) != 14 {
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
