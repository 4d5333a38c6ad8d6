// Command bench is the repository's benchmark: seven named workloads, eight
// end-to-end host-time metrics measured untraced, and a traced set that
// attributes host time to each layer from the outside, by timing calls into
// the layers' public functions. bench/README.md is the glossary; BENCHMARK.json
// at the repository root is the contract the driver reads.
//
//	go run ./bench -all -seed 1                # every workload, untraced
//	go run ./bench -all -seed 1 -trace 1       # ... then the traced set too
//	go run ./bench -workload noc_bound -seed 3 # one workload
//	go run ./bench -all -quick                 # smoke run, numbers not comparable
//	go run ./bench -compare A.json B.json      # two result files against the bounds
//
// Everything is host time, closed loop, one process per workload, and never
// more goroutines doing work than GOMAXPROCS. Values marked "simulated" are
// the modelled machine's and repeat exactly for equal -seed and -seconds.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
)

// workloads in report order, each with the one-line reason it exists.
var workloads = []struct{ name, why string }{
	{"noc_bound", "Table 2 system running KMN: the NoC is saturated and is ~3/4 of host time, so router, VC and switch-allocation work shows here first"},
	{"write_heavy", "same system running RAY: 5-flit write requests and 1-flit acks invert the reply:request ratio, so a gain tuned to long read replies that costs the write path shows here"},
	{"compute_bound", "same system running NQU: the NoC is sparse and SM+MC ticks are half the cycle; the bypass workload for NoC work (prediction: no move) and the showcase for SM-side work"},
	{"mesh16_lanes", "16x16 mesh, 240 SMs, 16 MCs at Workers=min(nproc,4): the only workload that exercises lane partitioning and barriers"},
	{"sweep_short", "sweep.Run over a grid of replicate-heavy ~25 ms jobs: per-job construction (Validate, CDG prover, arenas) and the record sink are a visible share only here"},
	{"fabric_short", "the same grid through an in-process coordinator, HTTP server and workers, then warm and cold resubmits: the difference from sweep_short is the fabric, and the resubmits are the store's read side"},
	{"figs", "fig2/3/7/8/9/10 and the network-division experiment at reduced scale: the only workload that runs every routing, VC policy, placement and the dual subnets; carries the result-shape checks"},
}

// nominalSeconds is the -seconds at which the workloads run their full
// counts (40 runs, 36 seeds x 12 grid points, 5 figure benchmarks), sized
// on a 2-vCPU box so the timed regions average about that long.
const nominalSeconds = 12

// params is one workload invocation.
type params struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	quick    bool

	clk *hostClock // every host time is taken through it (calib.go)
}

// count scales a full count by -seconds (and by 1/20 under -quick). Work
// is sized by count, not by a deadline, so that equal -seed and -seconds
// give byte-equal simulated results on any machine; cycle counts per run
// never scale.
func (p params) count(full, least int) int {
	scale := p.seconds / nominalSeconds
	if p.quick {
		scale /= 20
	}
	return max(least, int(math.Round(float64(full)*scale)))
}

func main() {
	var p params
	var traceFlag int
	all := flag.Bool("all", false, "run every workload, each in its own child process")
	compare := flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
	flag.StringVar(&p.workload, "workload", "", "run one workload: "+workloadNames())
	flag.Uint64Var(&p.seed, "seed", 1, "offsets every seed the workloads use")
	flag.Float64Var(&p.seconds, "seconds", nominalSeconds, "size of the timed region; run and job counts scale with it, cycles per run never do")
	flag.IntVar(&traceFlag, "trace", 0, "1 runs the traced set and reports the per-layer metrics")
	flag.BoolVar(&p.quick, "quick", false, "1/20 of the run and job counts: exercises every workload and check, numbers not comparable")
	flag.Parse()
	p.trace = traceFlag != 0

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *all:
		err = runAll(p)
	case p.workload != "":
		err = runOne(p)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// measure runs one workload in this process and returns its report.
func measure(p params) (*report, error) {
	if p.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	rep := newReport(p.workload)
	p.clk = newHostClock()
	var err error
	switch p.workload {
	case "sweep_short":
		if p.trace {
			err = sweepTraced(p, rep)
		} else {
			err = sweepUntraced(p, rep)
		}
	case "fabric_short":
		err = fabricRun(p, rep)
	case "figs":
		err = figsRun(p, rep)
	default:
		spec, ok := runSpecs[p.workload]
		if !ok {
			return nil, fmt.Errorf("unknown workload %q (have %s)", p.workload, workloadNames())
		}
		if p.trace {
			err = runTraced(p, spec, rep)
		} else {
			err = runUntraced(p, spec, rep)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p.workload, err)
	}
	p.clk.note(rep)
	if !p.trace {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		rep.set("peak_rss_mb", rss)
	}
	return rep, nil
}

// runOne measures one workload and prints the report; the last line of
// standard output is the result object. A failed operation or check makes
// the exit status non-zero.
func runOne(p params) error {
	rep, err := measure(p)
	if err != nil {
		return err
	}
	defs := endToEnd
	set := "end-to-end, untraced"
	if p.trace {
		defs, set = perLayer, "per-layer, traced"
	}
	fmt.Printf("%s seed=%d seconds=%g (%s)\n", p.workload, p.seed, p.seconds, set)
	fmt.Printf("  env: %s\n", readEnv())
	if p.quick {
		fmt.Println("  QUICK: 1/20 of the counts - these numbers are not comparable")
	}
	rep.print(os.Stdout, defs)
	fmt.Printf("  result_digest %s\n", rep.digest)
	fmt.Printf("  operations: %d attempted, %d failed\n", rep.attempted, rep.failed)
	fmt.Println(mustJSON(rep.result(defs)))
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", p.workload, rep.failed, rep.attempted)
	}
	return nil
}

// setResult is one -all run: the file format -compare reads, one object
// per line.
type setResult struct {
	Env        envStamp          `json:"env"`
	Seed       uint64            `json:"seed"`
	Seconds    float64           `json:"seconds"`
	Comparable bool              `json:"comparable"`
	Workloads  map[string]result `json:"workloads"`        // untraced set
	Layers     map[string]result `json:"layers,omitempty"` // traced set
	Digests    map[string]string `json:"digests"`
}

// runAll runs every workload in its own child process - so peak_rss_mb and
// the allocator state are the workload's own - untraced first, then traced
// when asked. The last line of standard output is the whole set as one
// object.
func runAll(p params) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := setResult{
		Env: readEnv(), Seed: p.seed, Seconds: p.seconds, Comparable: !p.quick,
		Workloads: map[string]result{}, Digests: map[string]string{},
	}
	fmt.Printf("bench: %d workloads, seed=%d seconds=%g, %s\n", len(workloads), p.seed, p.seconds, set.Env)
	failures := 0
	passes := []bool{false}
	if p.trace {
		passes = append(passes, true)
		set.Layers = map[string]result{}
	}
	for _, traced := range passes {
		for _, w := range workloads {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(p.seed), "-seconds", fmt.Sprint(p.seconds), "-trace", "0"}
			if traced {
				args[len(args)-1] = "1"
			}
			if p.quick {
				args = append(args, "-quick")
			}
			res, digest, err := runChild(self, args)
			if err != nil {
				fmt.Printf("  FAILED %s: %v\n", w.name, err)
				failures++
			}
			if res == nil {
				continue
			}
			if traced {
				set.Layers[w.name] = *res
			} else {
				set.Workloads[w.name] = *res
				set.Digests[w.name] = digest
			}
		}
	}
	// Check 1 across processes: both workloads digest the same canonical
	// records in expansion order.
	if s, f := set.Digests["sweep_short"], set.Digests["fabric_short"]; s != "" && f != "" {
		if s == f {
			fmt.Println("check 1 fabric_short == sweep_short (result_digest): ok")
		} else {
			fmt.Printf("FAILED check 1: fabric_short digest %s != sweep_short digest %s\n", f, s)
			failures++
		}
	}
	fmt.Println(mustJSON(set))
	if failures > 0 {
		return fmt.Errorf("%d workload runs failed", failures)
	}
	return nil
}

// runChild runs one workload process, echoes its report, and parses the
// result object off its last line.
func runChild(self string, args []string) (*result, string, error) {
	cmd := exec.Command(self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()

	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	last := lines[len(lines)-1]
	var res result
	dec := json.NewDecoder(strings.NewReader(last))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil || res.Metrics == nil {
		io.Copy(os.Stdout, &out)
		if runErr != nil {
			return nil, "", runErr
		}
		return nil, "", fmt.Errorf("no result line")
	}
	digest := ""
	for _, l := range lines[:len(lines)-1] {
		fmt.Println(l)
		if d, ok := strings.CutPrefix(strings.TrimSpace(l), "result_digest "); ok {
			digest = d
		}
	}
	return &res, digest, runErr
}
