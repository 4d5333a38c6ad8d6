// Command traceview summarizes the sampled packets of a run's series.jsonl
// (`nocsim -trace DIR`): per-type delivery counts and network latencies
// plus the head-flit hop histogram, then each sampled packet's hop
// timeline — cycle, router, VC, and stall causes along the way.
//
// Example:
//
//	nocsim -bench KMN -cycles 5000 -trace /tmp/kmn -trace-rate 1
//	traceview -n 5 /tmp/kmn/series.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/telemetry"
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
		fmt.Fprintln(stderr, "usage: traceview [-n N] <series.jsonl>")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	defer f.Close()
	tr, err := telemetry.ReadTrace(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	showSpans(stdout, tr, *limit)
	return 0
}

// summarizeSpans prints per-type delivered counts with mean and maximum
// network latency (injection to ejection) and the histogram of head-flit
// hops per packet. At sample rate 1 the trace holds every packet, so this
// is the run's full delivery picture; below 1 it describes the sample.
func summarizeSpans(w io.Writer, pkts []*telemetry.PacketTrace) {
	type stat struct {
		delivered      int
		sumLat, maxLat int64
	}
	byType := map[string]*stat{}
	hops := map[int]int{}
	for _, t := range pkts {
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

// showSpans prints the trace-wide delivery summary, then each sampled
// packet's lifecycle as a cycle-ordered timeline table.
func showSpans(w io.Writer, tr *telemetry.Trace, limit int) {
	pkts := tr.Packets
	if len(pkts) == 0 {
		// A sweep job's trace, or a run that sampled none: say so rather
		// than print an empty table.
		fmt.Fprintf(w, "no sampled packets in this trace (sample rate %g); `nocsim -trace DIR -trace-rate R` samples them\n", tr.Rate)
		return
	}
	fmt.Fprintf(w, "span log: seed %d, sample rate %g, %d traced packets\n", tr.Seed, tr.Rate, len(pkts))
	summarizeSpans(w, pkts)
	n := len(pkts)
	if limit > 0 && limit < n {
		n = limit
	}
	for _, t := range pkts[:n] {
		fmt.Fprintf(w, "\npkt#%d %s N%d->N%d (%d flits, trace#%d)\n",
			t.ID, t.Type, t.Src, t.Dst, t.Flits, t.Trace)
		fmt.Fprintf(w, "  %10s  %-10s %6s  %s\n", "cycle", "router", "vc", "event")
		for _, e := range t.Events {
			fmt.Fprintf(w, "  %10d  %-10s %6s  %s\n",
				e.Cycle, routerCol(e), vcCol(e), eventCol(e))
		}
	}
	if n < len(pkts) {
		fmt.Fprintf(w, "\n... %d more packets (raise -n to show them)\n", len(pkts)-n)
	}
}

func routerCol(e telemetry.Event) string {
	switch e.Kind {
	case telemetry.EvCreated, telemetry.EvReply:
		return "-"
	default:
		return fmt.Sprintf("N%d", e.Node)
	}
}

func vcCol(e telemetry.Event) string {
	switch e.Kind {
	case telemetry.EvInjected, telemetry.EvVCGrant, telemetry.EvHop:
		return fmt.Sprintf("vc%d", e.VC)
	default:
		return "-"
	}
}

func eventCol(e telemetry.Event) string {
	switch e.Kind {
	case telemetry.EvCreated:
		return "created"
	case telemetry.EvInjected:
		return "injected into the fabric"
	case telemetry.EvVCGrant:
		return fmt.Sprintf("VC granted toward N%d", e.To)
	case telemetry.EvHop:
		return fmt.Sprintf("link traversal -> N%d", e.To)
	case telemetry.EvStall:
		return fmt.Sprintf("stalled %d cycle(s): %s", e.N, e.Cause)
	case telemetry.EvEjected:
		return "ejected at destination"
	case telemetry.EvMCService:
		return fmt.Sprintf("L2 %s", hitMiss(e.Hit))
	case telemetry.EvDRAMQueued:
		return "DRAM queued"
	case telemetry.EvDRAMIssue:
		return fmt.Sprintf("DRAM issue bank %d, row %s", e.Bank, hitMiss(e.Hit))
	case telemetry.EvDRAMDone:
		return "DRAM done"
	case telemetry.EvReply:
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
