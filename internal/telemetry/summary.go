package telemetry

import "gpgpunoc/internal/packet"

// LatencySegmentStat condenses one latency-decomposition histogram, merged
// across subnets.
type LatencySegmentStat struct {
	Kind    string // "read" or "write"
	Segment string // "srcqueue", "reqnet", "mcservice", "replynet"
	Count   int64
	Mean    float64
	Max     int64
}

// Summary condenses a telemetry run into the aggregates the paper's traffic
// characterization is built on, computed from probes alone.
type Summary struct {
	Cycles int64

	// LinkFlits totals flit traversals over every inter-router link by
	// class — the Figure 2 request/reply asymmetry, measured on the wires.
	LinkFlits [packet.NumClasses]int64
	// InjectedFlits / EjectedFlits total fabric entry/exit flits.
	InjectedFlits, EjectedFlits int64
	// Stalls sums the stall attributions across the run, by cause.
	Stalls [NumStallCauses]int64
	// Latency lists the per-segment decomposition stats in a fixed order
	// (read then write, segments in pipeline order), skipping empty ones.
	Latency []LatencySegmentStat
}

// ReplyRequestRatio returns reply link flits over request link flits — the
// paper's headline ~2x asymmetry (Figure 2) — or 0 with no request traffic.
func (s Summary) ReplyRequestRatio() float64 {
	if s.LinkFlits[packet.Request] == 0 {
		return 0
	}
	return float64(s.LinkFlits[packet.Reply]) / float64(s.LinkFlits[packet.Request])
}

// Summarize folds the registry's current probe values into a Summary. It
// classifies probes by the exposition family and labels they were registered
// with, so it works unchanged for single and dual fabrics (the subnet label
// is simply not consulted, and both subnets merge into the same totals).
func (t *Telemetry) Summarize() Summary {
	s := Summary{Cycles: t.LastCycle()}
	// Latency histograms merge across subnets by (kind, segment).
	var count, sum, max [numTx][NumSegments]int64
	for i := range t.Reg.probes {
		p := &t.Reg.probes[i]
		switch p.desc.Family {
		case famLinkFlits:
			for c := packet.Class(0); c < packet.NumClasses; c++ {
				if p.desc.label("class") == c.String() {
					s.LinkFlits[c] += p.scalarValue()
				}
			}
		case famInjected:
			s.InjectedFlits += p.scalarValue()
		case famEjected:
			s.EjectedFlits += p.scalarValue()
		case famStall:
			s.Stalls[indexOf(stallNames[:], p.desc.label("cause"))] += p.scalarValue()
		case famLatency:
			tx := indexOf(txNames[:], p.desc.label("kind"))
			seg := indexOf(segmentNames[:], p.desc.label("segment"))
			count[tx][seg] += p.hist.Count()
			sum[tx][seg] += p.hist.Sum()
			if p.hist.Max() > max[tx][seg] {
				max[tx][seg] = p.hist.Max()
			}
		}
	}
	for tx := 0; tx < numTx; tx++ {
		for seg := Segment(0); seg < NumSegments; seg++ {
			if count[tx][seg] == 0 {
				continue
			}
			s.Latency = append(s.Latency, LatencySegmentStat{
				Kind:    txNames[tx],
				Segment: seg.String(),
				Count:   count[tx][seg],
				Mean:    float64(sum[tx][seg]) / float64(count[tx][seg]),
				Max:     max[tx][seg],
			})
		}
	}
	return s
}

// indexOf returns the position of v in names. Every caller passes a label
// this package wrote from the same table, so a miss is a bug.
func indexOf(names []string, v string) int {
	for i, n := range names {
		if n == v {
			return i
		}
	}
	panic("telemetry: label value " + v + " is not in its own name table")
}
