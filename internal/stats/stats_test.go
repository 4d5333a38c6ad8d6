package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

func TestSamplerBasics(t *testing.T) {
	var s Sampler
	for _, v := range []int64{5, 1, 9, 3} {
		s.Add(v)
	}
	if s.Count != 4 || s.Min != 1 || s.Max != 9 || s.Sum != 18 {
		t.Errorf("sampler state: %+v", s)
	}
	if got := s.Mean(); math.Abs(got-4.5) > 1e-12 {
		t.Errorf("mean = %v, want 4.5", got)
	}
}

func TestSamplerEmpty(t *testing.T) {
	var s Sampler
	if s.Mean() != 0 || s.Percentile(0.99) != 0 {
		t.Error("empty sampler must report zeros")
	}
}

func TestSamplerPercentileBounds(t *testing.T) {
	var s Sampler
	for i := int64(1); i <= 1000; i++ {
		s.Add(i)
	}
	p50 := s.Percentile(0.5)
	p99 := s.Percentile(0.99)
	if p50 < 256 || p50 > 1024 {
		t.Errorf("p50 bucket bound = %d, want around 512", p50)
	}
	if p99 < p50 {
		t.Errorf("p99 (%d) below p50 (%d)", p99, p50)
	}
}

func TestSamplerMerge(t *testing.T) {
	var a, b, all Sampler
	for i := int64(0); i < 100; i++ {
		v := i*i%97 + 1
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		all.Add(v)
	}
	a.Merge(&b)
	if a.Count != all.Count || a.Sum != all.Sum || a.Min != all.Min || a.Max != all.Max {
		t.Errorf("merge mismatch: %+v vs %+v", a, all)
	}
}

func TestSamplerMergeProperty(t *testing.T) {
	f := func(xs []int16, ys []int16) bool {
		var a, b, all Sampler
		for _, x := range xs {
			v := int64(x)
			a.Add(v)
			all.Add(v)
		}
		for _, y := range ys {
			v := int64(y)
			b.Add(v)
			all.Add(v)
		}
		a.Merge(&b)
		return a.Count == all.Count && a.Sum == all.Sum &&
			(all.Count == 0 || (a.Min == all.Min && a.Max == all.Max))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func mkNet() *Net {
	n := NewNet(mesh.New(4, 4))
	n.Enabled = true
	return n
}

func TestNetCounting(t *testing.T) {
	n := mkNet()
	p := &packet.Packet{Type: packet.ReadReply, Flits: 5, CreatedAt: 0, InjectedAt: 10, EjectedAt: 50}
	n.CountEjection(p)
	if n.EjectedFlits != [packet.NumTypes]int64{packet.ReadReply: 5} {
		t.Errorf("ejected flits %v", n.EjectedFlits)
	}
	if n.NetLatency[packet.Reply].Count != 1 || n.NetLatency[packet.Reply].Sum != 40 {
		t.Errorf("net latency sampler: %+v", n.NetLatency[packet.Reply])
	}
	if n.NetLatency[packet.Request].Count != 0 {
		t.Errorf("a reply counted as a request: %+v", n.NetLatency[packet.Request])
	}
}

func TestNetDisabledCollectsNothing(t *testing.T) {
	n := mkNet()
	n.Enabled = false
	p := &packet.Packet{Type: packet.ReadRequest, Flits: 1}
	n.CountEjection(p)
	if n.EjectedFlits[packet.ReadRequest] != 0 || n.NetLatency[packet.Request].Count != 0 {
		t.Error("disabled collector recorded packets")
	}
}

func TestClassFlits(t *testing.T) {
	n := mkNet()
	for _, p := range []*packet.Packet{
		{Type: packet.ReadRequest, Flits: 1},
		{Type: packet.WriteRequest, Flits: 5},
		{Type: packet.ReadReply, Flits: 5},
		{Type: packet.WriteReply, Flits: 1},
	} {
		n.CountEjection(p)
	}
	if got := n.ClassFlits(packet.Request); got != 6 {
		t.Errorf("request flits = %d, want 6", got)
	}
	if got := n.ClassFlits(packet.Reply); got != 6 {
		t.Errorf("reply flits = %d, want 6", got)
	}
}

func TestFlitShareSumsToOne(t *testing.T) {
	n := mkNet()
	n.CountEjection(&packet.Packet{Type: packet.ReadRequest, Flits: 3})
	n.CountEjection(&packet.Packet{Type: packet.ReadReply, Flits: 5})
	sum := 0.0
	for _, v := range n.FlitShare() {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
}

func TestHottestLinkAndUtilization(t *testing.T) {
	n := mkNet()
	n.Cycles = 10
	hot := mesh.Link{From: 5, Dir: mesh.East}
	for i := 0; i < 7; i++ {
		countLink(n, hot, packet.Reply)
	}
	countLink(n, mesh.Link{From: 1, Dir: mesh.South}, packet.Request)
	l, c := n.HottestLink()
	if l != hot || c != 7 {
		t.Errorf("hottest = %v (%d), want %v (7)", l, c, hot)
	}
	if u := n.LinkUtilization(hot); math.Abs(u-0.7) > 1e-12 {
		t.Errorf("utilization = %v, want 0.7", u)
	}
}

func TestNetReset(t *testing.T) {
	n := mkNet()
	n.CountEjection(&packet.Packet{Type: packet.ReadReply, Flits: 5})
	countLink(n, mesh.Link{From: 0, Dir: mesh.East}, packet.Reply)
	n.Reset()
	if !n.Enabled {
		t.Error("Reset must preserve Enabled")
	}
	if n.EjectedFlits[packet.ReadReply] != 0 || n.NetLatency[packet.Reply].Count != 0 {
		t.Error("Reset left packet counts")
	}
	if _, c := n.HottestLink(); c != 0 {
		t.Error("Reset left link counts")
	}
}

// TestNetMerge: merging two shards equals counting everything in one.
func TestNetMerge(t *testing.T) {
	a, b, all := mkNet(), mkNet(), mkNet()
	east := mesh.Link{From: 0, Dir: mesh.East}
	for i, p := range []*packet.Packet{
		{Type: packet.ReadReply, Flits: 5, CreatedAt: 0, InjectedAt: 3, EjectedAt: 40},
		{Type: packet.ReadRequest, Flits: 1, CreatedAt: 2, InjectedAt: 2, EjectedAt: 9},
		{Type: packet.ReadReply, Flits: 5, CreatedAt: 1, InjectedAt: 8, EjectedAt: 90},
	} {
		shard := a
		if i%2 == 1 {
			shard = b
		}
		for _, n := range []*Net{shard, all} {
			n.CountEjection(p)
			countLink(n, east, p.Class())
		}
	}
	a.Merge(b)
	if a.EjectedFlits != all.EjectedFlits || a.NetLatency != all.NetLatency {
		t.Errorf("merge of shards != unsharded counts:\n%+v\n%+v", a, all)
	}
	for c := range all.LinkFlits {
		for i, v := range all.LinkFlits[c] {
			if a.LinkFlits[c][i] != v {
				t.Errorf("link %d class %d: merged %d, want %d", i, c, a.LinkFlits[c][i], v)
			}
		}
	}
	links := &a.LinkFlits[packet.Reply][0]
	a.Reset()
	if &a.LinkFlits[packet.Reply][0] != links {
		t.Error("Reset reallocated the link arrays")
	}
}

func TestGPUSub(t *testing.T) {
	a := GPU{Cycles: 7, Instructions: 10, MemRequests: 2, L1Hits: 3, L1Misses: 4, L2Hits: 5, L2Misses: 6, StallCycles: 8}
	b := GPU{Cycles: 9, Instructions: 1, MemRequests: 1, L1Hits: 1, L1Misses: 1, L2Hits: 1, L2Misses: 1, StallCycles: 1}
	g := a
	g.Sub(&b)
	if want := (GPU{Cycles: 7, Instructions: 9, MemRequests: 1, L1Hits: 2, L1Misses: 3, L2Hits: 4, L2Misses: 5, StallCycles: 7}); g != want {
		t.Errorf("Sub = %+v, want %+v", g, want)
	}
}

func TestGPUMetrics(t *testing.T) {
	g := GPU{Cycles: 100, Instructions: 250, L1Hits: 60, L1Misses: 40, L2Hits: 30, L2Misses: 10}
	if ipc := g.IPC(); math.Abs(ipc-2.5) > 1e-12 {
		t.Errorf("IPC = %v", ipc)
	}
	if mr := g.L1MissRate(); math.Abs(mr-0.4) > 1e-12 {
		t.Errorf("L1 miss rate = %v", mr)
	}
	if mr := g.L2MissRate(); math.Abs(mr-0.25) > 1e-12 {
		t.Errorf("L2 miss rate = %v", mr)
	}
	var zero GPU
	if zero.IPC() != 0 || zero.L1MissRate() != 0 || zero.L2MissRate() != 0 {
		t.Error("zero GPU stats must report zeros, not NaN")
	}
}

func TestThroughput(t *testing.T) {
	n := mkNet()
	n.Cycles = 4
	n.CountEjection(&packet.Packet{Type: packet.ReadReply, Flits: 5})
	n.CountEjection(&packet.Packet{Type: packet.ReadRequest, Flits: 1})
	if th := n.Throughput(); math.Abs(th-1.5) > 1e-12 {
		t.Errorf("throughput = %v, want 1.5", th)
	}
}

func TestUtilizationGrid(t *testing.T) {
	n := mkNet()
	n.Cycles = 4
	countLink(n, mesh.Link{From: 0, Dir: mesh.East}, packet.Reply)
	countLink(n, mesh.Link{From: 0, Dir: mesh.East}, packet.Reply)
	g := n.UtilizationGrid(mesh.East)
	if g[0][0] != 0.5 {
		t.Errorf("grid[0][0] = %v, want 0.5", g[0][0])
	}
	if g[0][3] != -1 {
		t.Errorf("right-edge east link should be -1, got %v", g[0][3])
	}
}

func TestHeatmapRenders(t *testing.T) {
	n := mkNet()
	n.Cycles = 1
	countLink(n, mesh.Link{From: 5, Dir: mesh.South}, packet.Request)
	var b strings.Builder
	n.Heatmap(&b)
	out := b.String()
	for _, d := range []string{"outgoing N", "outgoing E", "outgoing S", "outgoing W"} {
		if !strings.Contains(out, d) {
			t.Errorf("heatmap missing %q section", d)
		}
	}
	if !strings.Contains(out, "@") {
		t.Error("saturated link not rendered as '@'")
	}
}

// countLink adds one flit of class cls crossing l to n's link counts, which
// the network writes in a run.
func countLink(n *Net, l mesh.Link, cls packet.Class) {
	n.LinkFlits[cls][n.Mesh.LinkIndex(l)]++
}
