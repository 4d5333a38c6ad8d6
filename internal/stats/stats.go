// Package stats collects simulation measurements: per-link flit traffic by
// class, network latency distributions, ejected flits by type, and the
// IPC-style performance counters the experiments report.
//
// Per-packet accounting is gated by an Enabled flag so warmup cycles do not
// pollute measurements. Per-link flits are not counted here: the network
// counts every flit once, always, and writes its measurement window into
// LinkFlits when asked for its statistics. Counters are plain integers,
// keeping the hot path allocation- and lock-free.
package stats

import (
	"fmt"
	"math"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// Sampler accumulates a scalar distribution: count, sum, min, max and a
// power-of-two histogram for tail inspection.
type Sampler struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	buckets [32]int64 // bucket i counts values in [2^i, 2^(i+1))
}

// Add records one observation.
func (s *Sampler) Add(v int64) {
	if s.Count == 0 || v < s.Min {
		s.Min = v
	}
	if v > s.Max {
		s.Max = v
	}
	s.Count++
	s.Sum += v
	b := 0
	for x := v; x > 1 && b < len(s.buckets)-1; x >>= 1 {
		b++
	}
	s.buckets[b]++
}

// Mean returns the average observation, or 0 with no samples.
func (s *Sampler) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Percentile returns an upper bound for the p-quantile (0 < p <= 1) using
// histogram buckets; adequate for tail reporting.
func (s *Sampler) Percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(p * float64(s.Count)))
	var seen int64
	for i, n := range s.buckets {
		seen += n
		if seen >= target {
			return int64(1) << uint(i+1)
		}
	}
	return s.Max
}

// Merge folds other into s.
func (s *Sampler) Merge(other *Sampler) {
	if other.Count == 0 {
		return
	}
	if s.Count == 0 || other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
	s.Count += other.Count
	s.Sum += other.Sum
	for i := range s.buckets {
		s.buckets[i] += other.buckets[i]
	}
}

// String summarizes the sampler.
func (s *Sampler) String() string {
	return fmt.Sprintf("n=%d mean=%.1f min=%d max=%d", s.Count, s.Mean(), s.Min, s.Max)
}

// Net aggregates network-side measurements for one simulation.
type Net struct {
	Enabled bool

	Mesh   mesh.Mesh
	Cycles int64

	// EjectedFlits counts flits by packet type at ejection, the point where
	// a packet has fully traversed.
	EjectedFlits [packet.NumTypes]int64

	// LinkFlits counts flit-traversals per directed link per class over
	// the measurement window, indexed by mesh.LinkIndex. The network
	// writes it (noc.Network.Stats).
	LinkFlits [packet.NumClasses][]int64

	// NetLatency is the latency from head injection to tail ejection (pure
	// network latency).
	NetLatency [packet.NumClasses]Sampler
}

// NewNet returns a stats collector for the given mesh.
func NewNet(m mesh.Mesh) *Net {
	n := &Net{Mesh: m}
	for c := range n.LinkFlits {
		n.LinkFlits[c] = make([]int64, m.NumLinkSlots())
	}
	return n
}

// Reset zeroes all counters in place, keeping Enabled, Mesh and the link
// arrays' storage.
func (n *Net) Reset() {
	en, m, links := n.Enabled, n.Mesh, n.LinkFlits
	*n = Net{Enabled: en, Mesh: m, LinkFlits: links}
	for c := range n.LinkFlits {
		clear(n.LinkFlits[c])
	}
}

// Merge adds src's counters into n: ejected flits, per-link flits and the
// latency distributions. Enabled, Mesh and Cycles stay n's. Every update is
// an integer sum, min, max or bucket count, so merging shards in a fixed
// order reproduces unsharded accumulation exactly.
func (n *Net) Merge(src *Net) {
	for t := range n.EjectedFlits {
		n.EjectedFlits[t] += src.EjectedFlits[t]
	}
	for c := range n.LinkFlits {
		for i, v := range src.LinkFlits[c] {
			n.LinkFlits[c][i] += v
		}
		n.NetLatency[c].Merge(&src.NetLatency[c])
	}
}

// CountEjection records a fully delivered packet and its network latency.
func (n *Net) CountEjection(p *packet.Packet) {
	if !n.Enabled {
		return
	}
	n.EjectedFlits[p.Type] += int64(p.Flits)
	n.NetLatency[p.Class()].Add(p.EjectedAt - p.InjectedAt)
}

// ClassFlits returns total ejected flits of a class.
func (n *Net) ClassFlits(cls packet.Class) int64 {
	var sum int64
	for t := packet.Type(0); t < packet.NumTypes; t++ {
		if t.Class() == cls {
			sum += n.EjectedFlits[t]
		}
	}
	return sum
}

// FlitShare returns each type's share of all ejected flits (Figure 3).
func (n *Net) FlitShare() [packet.NumTypes]float64 {
	var out [packet.NumTypes]float64
	var total int64
	for _, f := range n.EjectedFlits {
		total += f
	}
	if total == 0 {
		return out
	}
	for t, f := range n.EjectedFlits {
		out[t] = float64(f) / float64(total)
	}
	return out
}

// LinkUtilization returns flits/cycle on link l (both classes).
func (n *Net) LinkUtilization(l mesh.Link) float64 {
	if n.Cycles == 0 {
		return 0
	}
	idx := n.Mesh.LinkIndex(l)
	return float64(n.LinkFlits[packet.Request][idx]+n.LinkFlits[packet.Reply][idx]) /
		float64(n.Cycles)
}

// HottestLink returns the busiest directed link and its flit count.
func (n *Net) HottestLink() (mesh.Link, int64) {
	var best mesh.Link
	var bestCount int64 = -1
	for _, l := range n.Mesh.Links() {
		idx := n.Mesh.LinkIndex(l)
		c := n.LinkFlits[packet.Request][idx] + n.LinkFlits[packet.Reply][idx]
		if c > bestCount {
			best, bestCount = l, c
		}
	}
	return best, bestCount
}

// Throughput returns ejected flits per cycle across the whole network.
func (n *Net) Throughput() float64 {
	if n.Cycles == 0 {
		return 0
	}
	var total int64
	for _, f := range n.EjectedFlits {
		total += f
	}
	return float64(total) / float64(n.Cycles)
}

// GPU aggregates processor-side measurements.
type GPU struct {
	Cycles       int64
	Instructions int64 // warp-instructions issued
	MemRequests  int64 // memory transactions sent to the network
	L1Hits       int64
	L1Misses     int64
	L2Hits       int64
	L2Misses     int64
	StallCycles  int64 // SM cycles with no warp ready to issue
}

// Sub subtracts o's counters from g; Cycles stays g's.
func (g *GPU) Sub(o *GPU) {
	g.Instructions -= o.Instructions
	g.MemRequests -= o.MemRequests
	g.L1Hits -= o.L1Hits
	g.L1Misses -= o.L1Misses
	g.L2Hits -= o.L2Hits
	g.L2Misses -= o.L2Misses
	g.StallCycles -= o.StallCycles
}

// IPC returns warp-instructions per cycle, the paper's performance metric.
func (g *GPU) IPC() float64 {
	if g.Cycles == 0 {
		return 0
	}
	return float64(g.Instructions) / float64(g.Cycles)
}

// L1MissRate returns the L1 data miss ratio.
func (g *GPU) L1MissRate() float64 {
	total := g.L1Hits + g.L1Misses
	if total == 0 {
		return 0
	}
	return float64(g.L1Misses) / float64(total)
}

// L2MissRate returns the L2 miss ratio.
func (g *GPU) L2MissRate() float64 {
	total := g.L2Hits + g.L2Misses
	if total == 0 {
		return 0
	}
	return float64(g.L2Misses) / float64(total)
}
