package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"

	"gpgpunoc/internal/packet"
)

// A quantity is one named cell of a figure's table.
type quantity struct {
	name     string // its label in the checklist's Measured column
	fig      string // the runner id of the table it is read from
	row, col string
}

// A relation is a claim over a target's quantities, read in their order.
// Its margin is positive exactly when the claim holds: the smallest
// log-ratio over its conjuncts, each scored by gt or within.
type relation struct {
	desc   string
	margin func(v []float64) float64
}

// gt scores a > b as ln(a/b). Every quantity a target reads is positive, so
// a non-positive reading scores -Inf, which does not hold; a tie scores 0,
// which does not hold either.
func gt(a, b float64) float64 {
	if a <= 0 || b <= 0 {
		return math.Inf(-1)
	}
	return math.Log(a / b)
}

// within scores lo < v < hi by the nearer edge.
func within(v, lo, hi float64) float64 { return min(gt(v, lo), gt(hi, v)) }

// percent renders a margin as the checklist's Margin column shows it.
func percent(m float64) string { return fmt.Sprintf("%+.1f%%", 100*m) }

// A target is one result shape of the paper's evaluation, and the one place
// that decides whether this reproduction shows it. The relation is the
// paper's: its margin gives the checklist's verdict. The floor is what the
// reduced-scale shape tests enforce: nil means the relation itself;
// otherwise it is a band that short runs over a few benchmarks keep, and
// for the shapes this reproduction misses (5b, 6b, 8) the documented
// deviation, next to the relation it falls short of.
type target struct {
	id       string
	reads    []quantity
	relation relation
	paper    string // the paper's values
	floor    *relation
}

const (
	replyFlits = "MC-to-Core (Reply)"
	avgHops    = "Avg hops (Eq.3)"
)

var readReply = packet.ReadReply.String()

// targets are the paper's result shapes in the order of its evaluation.
// Figs. 8 and 9 each make two claims, and this reproduction shows the first
// of each (5a, 6a) but not the second (5b, 6b).
var targets = []target{
	{
		id: "1",
		reads: []quantity{
			{"geomean", "fig2", "Geomean", replyFlits},
			{"RAY", "fig2", "RAY", replyFlits},
			{"KMN", "fig2", "KMN", replyFlits},
		},
		relation: relation{"Fig. 2 reply:request within 10% of 2, RAY < 1",
			func(v []float64) float64 { return min(within(v[0], 1.8, 2.2), gt(1, v[1])) }},
		paper: "~2, RAY inverted",
		floor: &relation{"RAY < 1.2, KMN > 1.5",
			func(v []float64) float64 { return min(gt(1.2, v[1]), gt(v[2], 1.5)) }},
	},
	{
		id: "2",
		reads: []quantity{
			{"mean", "fig3", "Mean", readReply},
			{"KMN", "fig3", "KMN", readReply},
		},
		relation: relation{"Fig. 3 read replies 60-65% of flits",
			func(v []float64) float64 { return within(v[0], 60, 65) }},
		paper: "~63%",
		floor: &relation{"KMN read replies > 40% of flits",
			func(v []float64) float64 { return gt(v[1], 40) }},
	},
	{
		id: "3",
		reads: []quantity{
			{"bottom", "table1", "bottom", avgHops},
			{"edge", "table1", "edge", avgHops},
			{"top-bottom", "table1", "top-bottom", avgHops},
			{"diamond", "table1", "diamond", avgHops},
		},
		relation: relation{"Table 1 hops bottom > edge > top-bottom > diamond",
			func(v []float64) float64 { return min(gt(v[0], v[1]), gt(v[1], v[2]), gt(v[2], v[3])) }},
		paper: "the same ordering",
	},
	{
		id: "4",
		reads: []quantity{
			{"YX", "fig7", "Geomean", "YX"},
			{"XY-YX", "fig7", "Geomean", "XY-YX"},
		},
		relation: relation{"Fig. 7 YX > 1.05, XY-YX > YX",
			func(v []float64) float64 { return min(gt(v[0], 1.05), gt(v[1], v[0])) }},
		paper: "YX 1.393, XY-YX 1.647",
	},
	{
		id: "5a",
		reads: []quantity{
			{"XY mono", "fig8", "Geomean", "XY (Monopolized)"},
			{"XY-YX PM", "fig8", "Geomean", "XY-YX (Partially Monopolized)"},
		},
		relation: relation{"Fig. 8 XY-YX PM > XY mono > XY",
			func(v []float64) float64 { return min(gt(v[1], v[0]), gt(v[0], 1)) }},
		paper: "XY mono 1.438, XY-YX PM 1.854",
		floor: &relation{"XY mono > 1, XY-YX PM > 1.2",
			func(v []float64) float64 { return min(gt(v[0], 1), gt(v[1], 1.2)) }},
	},
	{
		id: "5b",
		reads: []quantity{
			{"YX FM", "fig8", "Geomean", "YX (Monopolized)"},
			{"XY-YX PM", "fig8", "Geomean", "XY-YX (Partially Monopolized)"},
			{"XY mono", "fig8", "Geomean", "XY (Monopolized)"},
		},
		relation: relation{"Fig. 8 YX FM > XY-YX PM",
			func(v []float64) float64 { return gt(v[0], v[1]) }},
		paper: "YX FM 1.889, XY-YX PM 1.854",
		floor: &relation{"YX FM > XY mono",
			func(v []float64) float64 { return gt(v[0], v[2]) }},
	},
	{
		id: "6a",
		reads: []quantity{
			{"diamond", "fig9", "Geomean", "Diamond (XY)"},
			{"edge", "fig9", "Geomean", "Edge (XY)"},
			{"top-bottom", "fig9", "Geomean", "Top-Bottom (XY)"},
		},
		relation: relation{"Fig. 9 XY: diamond > edge, top-bottom, bottom",
			func(v []float64) float64 { return min(gt(v[0], v[1]), gt(v[0], v[2]), gt(v[0], 1)) }},
		paper: "diamond 1.644, edge 1.373, top-bottom 1.404",
		floor: &relation{"diamond > 1",
			func(v []float64) float64 { return gt(v[0], 1) }},
	},
	{
		id: "6b",
		reads: []quantity{
			{"bottom YX FM", "fig9", "Geomean", "Bottom (YX FM)"},
			{"diamond PM", "fig9", "Geomean", "Diamond (XY PM)"},
			{"diamond", "fig9", "Geomean", "Diamond (XY)"},
		},
		relation: relation{"Fig. 9 bottom YX FM > diamond, diamond PM",
			func(v []float64) float64 { return min(gt(v[0], v[1]), gt(v[0], v[2])) }},
		paper: "bottom YX FM 1.894, diamond PM 1.764",
		floor: &relation{"bottom YX FM > 1.3 and > 0.8 x diamond",
			func(v []float64) float64 { return min(gt(v[0], 1.3), gt(v[0], 0.8*v[2])) }},
	},
	{
		id: "7",
		reads: []quantity{
			{"1:3", "fig10", "Geomean", "VC Partitioned (1:3)"},
		},
		relation: relation{"Fig. 10 1:3 > 2:2",
			func(v []float64) float64 { return gt(v[0], 1) }},
		paper: "1:3 1.039",
		floor: &relation{"1:3 in (0.9, 1.5)",
			func(v []float64) float64 { return within(v[0], 0.9, 1.5) }},
	},
	{
		id: "8",
		reads: []quantity{
			{"Single/Dual2x", "division", "Geomean", "Single/Dual2x"},
			{"Single/DualEq", "division", "Geomean", "Single/DualEq"},
		},
		relation: relation{"Sec. 4.2 Single/Dual2x = 1.000",
			func(v []float64) float64 { return within(v[0], 0.9995, 1.0005) }},
		paper: "within 0.03%",
		floor: &relation{"Single/Dual2x in (0.8, 1.4), Single/DualEq > 1",
			func(v []float64) float64 { return min(within(v[0], 0.8, 1.4), gt(v[1], 1)) }},
	},
}

// errNotRun is measure's error for a target that reads a benchmark the
// options left out.
var errNotRun = errors.New("not run")

// measure reads the target's quantities from tables, keyed by runner id,
// and renders them as the checklist's Measured column.
func (tg target) measure(tables map[string]*Table) ([]float64, string, error) {
	v := make([]float64, len(tg.reads))
	shown := make([]string, len(tg.reads))
	for i, q := range tg.reads {
		t := tables[q.fig]
		if t == nil {
			return nil, "", fmt.Errorf("target %s: no %s table", tg.id, q.fig)
		}
		if !slices.ContainsFunc(t.Rows, func(r []string) bool { return r[0] == q.row }) {
			return nil, q.row + " " + errNotRun.Error(), errNotRun
		}
		s, x, err := t.cell(q.row, q.col)
		if err != nil {
			return nil, "", fmt.Errorf("target %s: %w", tg.id, err)
		}
		v[i], shown[i] = x, q.name+" "+s
	}
	return v, strings.Join(shown, ", "), nil
}

// Checklist runs the figures the targets read — after the figures
// themselves, every run is a result memo hit — and renders each target's
// margin and verdict against the paper.
func Checklist(o Opts) (*Table, error) {
	tables := map[string]*Table{}
	for _, tg := range targets {
		for _, q := range tg.reads {
			if tables[q.fig] != nil {
				continue
			}
			r, err := ByID(q.fig)
			if err != nil {
				return nil, err
			}
			if tables[q.fig], err = r.Run(o); err != nil {
				return nil, fmt.Errorf("%s: %w", q.fig, err)
			}
		}
	}
	return checklist(tables)
}

// checklist renders the targets' margins and verdicts over tables keyed by
// runner id. A target that does not hold gets a note naming the band its
// floor keeps; one that reads a benchmark the tables lack is not measured.
func checklist(tables map[string]*Table) (*Table, error) {
	t := &Table{
		ID:      "Checklist",
		Title:   "Reproduction checklist: the paper's result shapes",
		Columns: []string{"Target", "Claim", "Paper", "Measured", "Margin", "Verdict"},
		Notes:   []string{"Figs. 7-10 and Sec. 4.2 read each table's Geomean row"},
	}
	for _, tg := range targets {
		v, shown, err := tg.measure(tables)
		margin, verdict := "n/a", "not measured"
		switch {
		case errors.Is(err, errNotRun):
		case err != nil:
			return nil, err
		default:
			m := tg.relation.margin(v)
			margin, verdict = percent(m), "holds"
			if m <= 0 {
				verdict = "does not hold"
				if tg.floor != nil {
					t.Notes = append(t.Notes, fmt.Sprintf("%s: the reduced-scale tests keep the band %s", tg.id, tg.floor.desc))
				}
			}
		}
		t.Rows = append(t.Rows, []string{tg.id, tg.relation.desc, tg.paper, shown, margin, verdict})
	}
	return t, nil
}
