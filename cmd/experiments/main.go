// Command experiments regenerates the paper's tables and figures.
//
// Examples:
//
//	experiments -run all
//	experiments -run fig7,fig8
//	experiments -run fig9 -cycles 40000 -parallel 8
//	experiments -run fig7 -format json
//	experiments -run fig2,fig3 -format csv > traffic.csv
//	experiments -run probefig2 -benchmarks KMN,RAY
//	experiments -run table1,hops
//	experiments -run checklist -benchmarks KMN,RAY
//	experiments -list
//
// Runs that figures share — the Table 2 baseline under Figs. 2, 3, 7, 8, 9
// and the division study — are simulated once per process; after each figure
// a stderr line such as "fig3: 5 results, 5 reused" says how many of its
// results came from a run already finished.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so tests can pin
// what it prints. It returns the process exit code: 2 for flags it cannot
// parse, 1 for anything that fails after that.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs    = fs.String("run", "all", "comma-separated experiment ids, or 'all'")
		list      = fs.Bool("list", false, "list available experiments and exit")
		benchmark = fs.String("benchmarks", "", "comma-separated benchmark subset (default: all 25)")
		parallel  = fs.Int("parallel", 0, "worker goroutines (default GOMAXPROCS)")
		format    = fs.String("format", "text", "output format: text, json or csv")
	)
	// Configuration overrides (-cycles, -warmup, -seed, -vcs, ...) come
	// from the shared config.BindFlags API and are layered over each
	// experiment's own base configuration.
	cf := config.BindFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// Parsing stops at the first argument that is not a flag, so every flag
	// after it would be dropped unseen.
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "experiments: unexpected argument %q: flags go before it, and -run names the experiments\n", fs.Arg(0))
		return 2
	}
	overrides, err := cf.Overrides()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	if *list {
		for _, r := range experiments.Runners() {
			fmt.Fprintf(stdout, "%-10s %s\n", r.ID, r.Desc)
		}
		return 0
	}

	switch *format {
	case "text", "json", "csv":
	default:
		fmt.Fprintf(stderr, "unknown -format %q (want text, json or csv)\n", *format)
		return 1
	}

	benchmarks, err := experiments.ParseBenchmarks(*benchmark)
	if err != nil {
		fmt.Fprintf(stderr, "-benchmarks %q: %v\n", *benchmark, err)
		return 2
	}
	opts := experiments.Opts{
		Benchmarks: benchmarks,
		Parallel:   *parallel,
		Overrides:  overrides,
	}

	var ids []string
	if *runIDs == "all" {
		for _, r := range experiments.Runners() {
			ids = append(ids, r.ID)
		}
	} else {
		ids = strings.Split(*runIDs, ",")
	}

	var tables []*experiments.Table
	for _, id := range ids {
		r, err := experiments.ByID(strings.TrimSpace(id))
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		sim0, reused0 := experiments.MemoCounts()
		t, err := r.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", r.ID, err)
			return 1
		}
		// Silent for the experiments that simulate nothing through the
		// figure runners' shared table (probefig2, fig4, table1, hops, sweep).
		sim1, reused1 := experiments.MemoCounts()
		if n := sim1 - sim0 + reused1 - reused0; n > 0 {
			fmt.Fprintf(stderr, "%s: %d results, %d reused\n", r.ID, n, reused1-reused0)
		}
		if *format == "text" {
			t.Fprint(stdout) // stream tables as they finish
		}
		tables = append(tables, t)
	}

	switch *format {
	case "text":
		// already streamed
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tables); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	case "csv":
		for i, t := range tables {
			if i > 0 {
				fmt.Fprintln(stdout)
			}
			if len(tables) > 1 {
				fmt.Fprintf(stdout, "# %s: %s\n", t.ID, t.Title)
			}
			if err := t.WriteCSV(stdout); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
	}
	return 0
}
