package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// -compare A.json B.json: A is the parent (or the first set of runs), B the
// change (or the second). Each file holds one -all result object per line;
// append several runs to a file to give the comparison a spread.

// readSets loads every result line of a file.
func readSets(path string) ([]setResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var sets []setResult
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var s setResult
		if err := json.Unmarshal([]byte(text), &s); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if len(s.Workloads) == 0 {
			return nil, fmt.Errorf("%s line %d: not a -all result object", path, line)
		}
		if !s.Comparable {
			return nil, fmt.Errorf("%s line %d: a -quick run is not comparable", path, line)
		}
		sets = append(sets, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("%s: no result lines", path)
	}
	return sets, nil
}

// quartiles are the cut points Python's statistics.quantiles(v, n=4) gives
// (the driver's definition of spread); ok is false below two samples.
func quartiles(v []float64) (q1, q2, q3 float64, ok bool) {
	n := len(v)
	if n < 2 {
		return 0, 0, 0, false
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// relSpread is the interquartile range as a share of the median.
func relSpread(v []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(v)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / q2, true
}

// everyBetter reports whether every run of b reads better than every run
// of a.
func everyBetter(a, b []float64, better string) bool {
	for _, x := range a {
		for _, y := range b {
			if (better == "lower" && y >= x) || (better == "higher" && y <= x) {
				return false
			}
		}
	}
	return true
}

func samples(sets []setResult, layer bool, workload, metric string) []float64 {
	var out []float64
	for _, s := range sets {
		src := s.Workloads
		if layer {
			src = s.Layers
		}
		if r, ok := src[workload]; ok {
			if v, ok := r.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

// compareFiles prints one row per (workload, end-to-end metric) - median
// delta against the metric's bound, spread, verdict - then the failed-
// operation shares, then every exact value that differs between runs of
// equal seed. It returns an error, and so a non-zero exit, on any breach.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readSets(pathA)
	if err != nil {
		return err
	}
	b, err := readSets(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (%d sets, %s)\nB: %s (%d sets, %s)\n", pathA, len(a), a[0].Env, pathB, len(b), b[0].Env)
	fmt.Fprintf(w, "%-14s %-22s %14s %14s %8s %7s %8s  %s\n", "workload", "metric", "median A", "median B", "worse%", "bound%", "spread%", "verdict")

	breaches, unresolved := 0, 0
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := samples(a, false, wl.name, d.Name), samples(b, false, wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := ratio(mb-ma, ma)
			if d.Better == "higher" {
				worse = -worse
			}
			sa, okA := relSpread(va)
			sb, okB := relSpread(vb)
			spread, spreadText := max(sa, sb), "n/a"
			if okA && okB {
				spreadText = fmt.Sprintf("%.1f", 100*spread)
			}
			verdict := "ok"
			switch {
			case worse > d.Bound:
				verdict = "REGRESSION"
				breaches++
			case okA && okB && spread > d.Bound && !everyBetter(va, vb, d.Better):
				// The runs cannot tell a change of this size from noise.
				verdict = "unresolved"
				unresolved++
			}
			fmt.Fprintf(w, "%-14s %-22s %14s %14s %+8.1f %7.0f %8s  %s\n",
				wl.name, d.Name, formatValue(ma), formatValue(mb), 100*worse, 100*d.Bound, spreadText, verdict)
		}
	}

	fmt.Fprintf(w, "\nfailed operations (failed / attempted)\n")
	for _, wl := range workloads {
		fa, ta := opTotals(a, wl.name)
		fb, tb := opTotals(b, wl.name)
		if ta == 0 || tb == 0 {
			continue
		}
		verdict := "ok"
		if ratio(float64(fb), float64(tb)) > ratio(float64(fa), float64(ta)) {
			verdict = "MORE FAILURES"
			breaches++
		}
		fmt.Fprintf(w, "%-14s A %d/%d  B %d/%d  %s\n", wl.name, fa, ta, fb, tb, verdict)
	}

	mismatches := exactMismatches(w, a, b)
	breaches += mismatches
	fmt.Fprintf(w, "\n%d breaches (%d exact-value mismatches), %d unresolved\n", breaches, mismatches, unresolved)
	if breaches > 0 {
		return fmt.Errorf("compare: %d breaches", breaches)
	}
	return nil
}

func opTotals(sets []setResult, workload string) (failed, attempted int) {
	for _, s := range sets {
		for _, src := range []map[string]result{s.Workloads, s.Layers} {
			if r, ok := src[workload]; ok {
				failed += r.Failed
				attempted += r.Attempted
			}
		}
	}
	return failed, attempted
}

// exactMismatches pairs runs of equal seed and size across the two files
// and lists every result digest and simulated-domain value that differs: a
// host-only change must leave all of them identical.
func exactMismatches(w io.Writer, a, b []setResult) int {
	n := 0
	for _, sa := range a {
		for _, sb := range b {
			if sa.Seed != sb.Seed || sa.Seconds != sb.Seconds {
				continue
			}
			for _, wl := range workloads {
				if da, db := sa.Digests[wl.name], sb.Digests[wl.name]; da != "" && db != "" && da != db {
					fmt.Fprintf(w, "MISMATCH seed=%d %s result_digest: %s vs %s\n", sa.Seed, wl.name, da, db)
					n++
				}
				la, okA := sa.Layers[wl.name]
				lb, okB := sb.Layers[wl.name]
				if !okA || !okB {
					continue
				}
				for _, d := range perLayer {
					if d.Exact && la.Metrics[d.Name].Value != lb.Metrics[d.Name].Value {
						fmt.Fprintf(w, "MISMATCH seed=%d %s %s: %v vs %v\n", sa.Seed, wl.name, d.Name,
							la.Metrics[d.Name].Value, lb.Metrics[d.Name].Value)
						n++
					}
				}
			}
		}
	}
	return n
}
