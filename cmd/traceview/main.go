// Command traceview summarizes a span JSONL log produced by `nocsim -spans`:
// per-type delivery counts and network latencies plus the head-flit hop
// histogram over the whole log, then each sampled packet's hop timeline —
// cycle, router, VC, and stall causes along the way.
//
// Example:
//
//	nocsim -bench KMN -cycles 5000 -spans /tmp/kmn.spans.jsonl -obs-sample-rate 1
//	traceview -n 5 /tmp/kmn.spans.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/packet"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its inputs and outputs as parameters, so tests can pin
// what it prints. It returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceview", flag.ContinueOnError)
	fs.SetOutput(stderr)
	limit := fs.Int("n", 0, "show at most N per-packet timelines (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: traceview [-n N] <spans.jsonl>")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	log, err := obs.ReadSpans(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	showSpans(stdout, log, *limit)
	return 0
}

// summarizeSpans prints per-type delivered counts with mean and maximum
// network latency (injection to ejection) and the histogram of head-flit
// hops per packet. At sample rate 1 the log holds every packet, so this is
// the run's full delivery picture; below 1 it describes the sample.
func summarizeSpans(w io.Writer, log *obs.SpanLog) {
	type stat struct {
		delivered      int
		sumLat, maxLat int64
	}
	byType := map[string]*stat{}
	hops := map[int]int{}
	for _, t := range log.Traces {
		if n := len(t.Hops()); n > 0 {
			hops[n]++
		}
		lat, ok := t.NetLatency()
		if !ok {
			continue
		}
		st := byType[t.Type]
		if st == nil {
			st = &stat{}
			byType[t.Type] = st
		}
		st.delivered++
		st.sumLat += lat
		st.maxLat = max(st.maxLat, lat)
	}
	fmt.Fprintf(w, "\n%-14s %10s %12s %10s\n", "type", "delivered", "mean lat", "max lat")
	for t := packet.Type(0); t < packet.NumTypes; t++ {
		if st := byType[t.String()]; st != nil {
			fmt.Fprintf(w, "%-14s %10d %12.1f %10d\n", t, st.delivered,
				float64(st.sumLat)/float64(st.delivered), st.maxLat)
		}
	}
	if len(hops) > 0 {
		fmt.Fprintln(w, "\nhead-flit hops per packet:")
		var counts []int
		for h := range hops {
			counts = append(counts, h)
		}
		sort.Ints(counts)
		for _, h := range counts {
			fmt.Fprintf(w, "  %2d hops: %d packets\n", h, hops[h])
		}
	}
}

// showSpans prints the log-wide delivery summary, then each sampled
// packet's lifecycle as a cycle-ordered timeline table.
func showSpans(w io.Writer, log *obs.SpanLog, limit int) {
	fmt.Fprintf(w, "span log: seed %d, sample rate %g, %d traced packets\n",
		log.Seed, log.Rate, len(log.Traces))
	summarizeSpans(w, log)
	n := len(log.Traces)
	if limit > 0 && limit < n {
		n = limit
	}
	for _, t := range log.Traces[:n] {
		fmt.Fprintf(w, "\npkt#%d %s N%d->N%d (%d flits, trace#%d)\n",
			t.ID, t.Type, t.Src, t.Dst, t.Flits, t.Trace)
		fmt.Fprintf(w, "  %10s  %-10s %6s  %s\n", "cycle", "router", "vc", "event")
		for _, e := range t.Events {
			fmt.Fprintf(w, "  %10d  %-10s %6s  %s\n",
				e.Cycle, routerCol(e), vcCol(e), eventCol(e))
		}
	}
	if n < len(log.Traces) {
		fmt.Fprintf(w, "\n... %d more packets (raise -n to show them)\n", len(log.Traces)-n)
	}
}

func routerCol(e obs.Event) string {
	switch e.Kind {
	case obs.EvCreated, obs.EvReply:
		return "-"
	default:
		return fmt.Sprintf("N%d", e.Node)
	}
}

func vcCol(e obs.Event) string {
	switch e.Kind {
	case obs.EvInjected, obs.EvVCGrant, obs.EvHop:
		return fmt.Sprintf("vc%d", e.VC)
	default:
		return "-"
	}
}

func eventCol(e obs.Event) string {
	switch e.Kind {
	case obs.EvCreated:
		return "created"
	case obs.EvInjected:
		return "injected into the fabric"
	case obs.EvVCGrant:
		return fmt.Sprintf("VC granted toward N%d", e.To)
	case obs.EvHop:
		return fmt.Sprintf("link traversal -> N%d", e.To)
	case obs.EvStall:
		return fmt.Sprintf("stalled %d cycle(s): %s", e.N, e.Cause)
	case obs.EvEjected:
		return "ejected at destination"
	case obs.EvMCService:
		return fmt.Sprintf("L2 %s", hitMiss(e.Hit))
	case obs.EvDRAMQueued:
		return "DRAM queued"
	case obs.EvDRAMIssue:
		return fmt.Sprintf("DRAM issue bank %d, row %s", e.Bank, hitMiss(e.Hit))
	case obs.EvDRAMDone:
		return "DRAM done"
	case obs.EvReply:
		return fmt.Sprintf("reply pkt#%d created", e.Reply)
	default:
		return e.Kind.String()
	}
}

func hitMiss(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}
