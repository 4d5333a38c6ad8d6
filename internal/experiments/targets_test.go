package experiments

import (
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's checklist block from results_full.txt")

const (
	resultsFile     = "../../results_full.txt"
	experimentsFile = "../../EXPERIMENTS.md"
	checklistBegin  = "<!-- checklist: rendered from results_full.txt by TestChecklistMatchesResultsFile -->\n"
	checklistEnd    = "<!-- end checklist -->\n"
)

// parseTextTables reads back the tables Table.Fprint wrote, in order. A
// cell is the text from its column's start to the next column's start, the
// starts read off the header line: Fprint pads every column to its widest
// cell and joins columns with two spaces, and no header holds two spaces.
func parseTextTables(text string) ([]*Table, error) {
	var tables []*Table
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		head, ok := strings.CutPrefix(lines[i], "== ")
		if !ok {
			continue
		}
		id, title, ok := strings.Cut(strings.TrimSuffix(head, " =="), ": ")
		if !ok || i+2 >= len(lines) {
			return nil, fmt.Errorf("line %d: %q is not a table heading", i+1, lines[i])
		}
		header := lines[i+1]
		starts := []int{0}
		for p := 2; p < len(header); p++ {
			if header[p] != ' ' && header[p-1] == ' ' && header[p-2] == ' ' {
				starts = append(starts, p)
			}
		}
		cells := func(line string) []string {
			out := make([]string, len(starts))
			for k, s := range starts {
				end := len(line)
				if k+1 < len(starts) {
					end = min(end, starts[k+1])
				}
				if s < end {
					out[k] = strings.TrimSpace(line[s:end])
				}
			}
			return out
		}
		t := &Table{ID: id, Title: title, Columns: cells(header)}
		for i += 3; i < len(lines) && lines[i] != "" && !strings.HasPrefix(lines[i], "note: "); i++ {
			t.Rows = append(t.Rows, cells(lines[i]))
		}
		for ; i < len(lines) && strings.HasPrefix(lines[i], "note: "); i++ {
			t.Notes = append(t.Notes, strings.TrimPrefix(lines[i], "note: "))
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// resultsTables reads the committed full-scale results back into tables
// keyed by runner id, and fails t unless they print back to the file.
func resultsTables(t *testing.T) map[string]*Table {
	t.Helper()
	data, err := os.ReadFile(resultsFile)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := parseTextTables(string(data))
	if err != nil {
		t.Fatal(err)
	}
	var back strings.Builder
	tables := map[string]*Table{}
	for _, tab := range parsed {
		tab.Fprint(&back)
		tables[strings.ToLower(tab.ID)] = tab
	}
	if back.String() != string(data) {
		t.Fatalf("%s does not print back from its parsed tables", resultsFile)
	}
	return tables
}

// TestChecklistMatchesResultsFile renders the checklist from the committed
// full-scale results, simulating nothing, and requires EXPERIMENTS.md's
// checklist block to be that rendering byte for byte. With -update it
// rewrites the block instead.
func TestChecklistMatchesResultsFile(t *testing.T) {
	tab, err := checklist(resultsTables(t))
	if err != nil {
		t.Fatal(err)
	}
	block := checklistBegin + "```text\n" + strings.TrimSuffix(tab.String(), "\n") + "```\n" + checklistEnd

	doc, err := os.ReadFile(experimentsFile)
	if err != nil {
		t.Fatal(err)
	}
	before, rest, ok := strings.Cut(string(doc), checklistBegin)
	_, after, ok2 := strings.Cut(rest, checklistEnd)
	if !ok || !ok2 {
		t.Fatalf("%s has no checklist block (%q ... %q)", experimentsFile, checklistBegin, checklistEnd)
	}
	if *update {
		if err := os.WriteFile(experimentsFile, []byte(before+block+after), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if got := checklistBegin + rest[:len(rest)-len(after)]; got != block {
		t.Errorf("%s's checklist block differs from the one rendered from %s (go test ./internal/experiments -run TestChecklistMatchesResultsFile -update):\n--- got\n%s--- want\n%s",
			experimentsFile, resultsFile, got, block)
	}
}

// TestMarginRules: a conjunct a > b scores ln(a/b), a band scores its
// nearer edge, a tie or a reading on a band's edge scores 0 and a
// non-positive reading -Inf, none of which holds; a target reading a
// benchmark the tables lack shows no margin.
func TestMarginRules(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"gt(2, 1)", gt(2, 1), math.Log(2)},
		{"gt(1, 2)", gt(1, 2), -math.Log(2)},
		{"gt(1, 1)", gt(1, 1), 0},
		{"gt(0, 1)", gt(0, 1), math.Inf(-1)},
		{"gt(1, 0)", gt(1, 0), math.Inf(-1)},
		{"within(1.5, 1, 2)", within(1.5, 1, 2), math.Log(2 / 1.5)},
		{"within(1, 1, 2)", within(1, 1, 2), 0},
		{"within(3, 1, 2)", within(3, 1, 2), math.Log(2.0 / 3)},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}

	tables := resultsTables(t)
	fig2 := *tables["fig2"]
	fig2.Rows = slices.DeleteFunc(slices.Clone(fig2.Rows), func(r []string) bool { return r[0] == "RAY" })
	tables["fig2"] = &fig2
	tab, err := checklist(tables)
	if err != nil {
		t.Fatal(err)
	}
	if r := tab.Rows[0]; r[0] != "1" || r[4] != "n/a" || r[5] != "not measured" {
		t.Errorf("target 1 without RAY renders %q, want margin n/a, not measured", r)
	}
}
