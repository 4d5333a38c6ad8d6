// Package telemetry is the cycle-domain observability subsystem: a registry
// of typed probes (counters, gauges, fixed-bucket histograms) registered by
// name, an epoch sampler that snapshots the registry into in-memory
// time-series, a per-packet latency decomposition, sampled per-packet span
// tracing, and one writer and one reader of a run's trace (WriteTrace:
// series.jsonl, trace.json, heatmap.csv; ReadTrace).
//
// The subsystem is opt-in and built for a zero-allocation hot path: probe
// sites hold pointers obtained once at registration, incrementing a probe is
// a plain int64 field update, and a count the component keeps anyway is
// registered as a read-through counter over its slot (CounterOf), so
// attaching probes adds nothing to the hot path. Instantaneous levels — VC
// occupancy, queue depths — are GaugeFuncs read only when the sampler
// fires, so they cost nothing between epochs.
package telemetry

import (
	"fmt"
	"strings"
)

// Kind classifies a probe.
type Kind uint8

// Probe kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindGaugeFunc
	KindHistogram
)

var kindNames = [4]string{"counter", "gauge", "gaugefunc", "histogram"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Counter is a monotonically increasing probe. Increment is a single field
// update; the struct is registered once and the pointer held by the site.
type Counter struct{ v int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n int64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v }

// Gauge is an instantaneous level set by the instrumented component.
type Gauge struct{ v int64 }

// Set replaces the level.
func (g *Gauge) Set(v int64) { g.v = v }

// Inc adds one.
func (g *Gauge) Inc() { g.v++ }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v-- }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v += n }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v }

// Histogram accumulates observations into fixed buckets. Bucket i counts
// observations v with v <= Bounds[i] (and above Bounds[i-1]); one implicit
// overflow bucket catches everything beyond the last bound.
type Histogram struct {
	bounds []int64 // sorted upper bounds
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
	sum    int64
	min    int64
	max    int64
}

func newHistogram(bounds []int64) *Histogram {
	if len(bounds) == 0 {
		panic("telemetry: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("telemetry: histogram bounds not strictly increasing at %d", i))
		}
	}
	b := append([]int64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	// Binary search over the bounds; histograms are small and fixed.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the total of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest observation (0 with no samples).
func (h *Histogram) Min() int64 { return h.min }

// Max returns the largest observation (0 with no samples).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the average observation, or 0 with no samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Buckets returns the bucket bounds and counts; the counts slice has one
// extra trailing overflow bucket. Both are copies.
func (h *Histogram) Buckets() (bounds, counts []int64) {
	return append([]int64(nil), h.bounds...), append([]int64(nil), h.counts...)
}

// ExpBounds builds n exponentially spaced bucket bounds starting at start
// and multiplying by factor: the standard latency bucketing.
func ExpBounds(start, factor int64, n int) []int64 {
	if start <= 0 || factor < 2 || n <= 0 {
		panic("telemetry: ExpBounds needs start > 0, factor >= 2, n > 0")
	}
	out := make([]int64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// Desc is a probe's exposition identity, stated once at the site that
// registers it: the Prometheus metric family the probe is a sample of, that
// family's help text, and the sample's label pairs (key, value alternating;
// a pair with an empty value is dropped). The renderer prints what is stored
// here and never looks inside a probe name. The zero Desc files the probe
// under the catch-all "probe" family, labelled with its name, so a scrape
// never silently drops data.
type Desc struct {
	Family string
	Help   string
	Labels []string
}

// label returns the value of the named label, or "".
func (d *Desc) label(key string) string {
	for i := 0; i+1 < len(d.Labels); i += 2 {
		if d.Labels[i] == key {
			return d.Labels[i+1]
		}
	}
	return ""
}

// renderLabels renders label pairs as the k="v",... body of a Prometheus
// label set (without braces, so the histogram renderer can append le).
func renderLabels(kv []string) string {
	var b strings.Builder
	for i := 0; i+1 < len(kv); i += 2 {
		if kv[i+1] == "" {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(kv[i+1]))
		b.WriteByte('"')
	}
	return b.String()
}

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// probeEntry is one registered probe, in registration order.
type probeEntry struct {
	name    string
	kind    Kind
	desc    Desc
	labels  string // desc.Labels rendered once, at registration
	slot    *int64 // counter, gauge: the value
	gaugeFn func() int64
	hist    *Histogram
}

// scalarValue reads the probe's current scalar value (histograms excluded
// from snapshots; their full shape is exported separately).
func (p *probeEntry) scalarValue() int64 {
	if p.gaugeFn != nil {
		return p.gaugeFn()
	}
	return *p.slot
}

// Registry is the set of named probes for one simulation. Registration is
// setup-time only (and panics on duplicate names — probe identity is a
// programming contract); the hot path never touches the name map.
type Registry struct {
	index   map[string]int
	probes  []probeEntry
	scalars []int // indices of non-histogram probes, registration order
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

func (r *Registry) register(e probeEntry) {
	if e.name == "" {
		panic("telemetry: probe registered with an empty name")
	}
	if _, dup := r.index[e.name]; dup {
		panic("telemetry: duplicate probe name " + e.name)
	}
	if e.desc.Family == "" {
		e.desc = Desc{Family: "probe", Help: "Probes registered without an exposition family.",
			Labels: []string{"name", e.name}}
	}
	e.labels = renderLabels(e.desc.Labels)
	r.index[e.name] = len(r.probes)
	if e.kind != KindHistogram {
		r.scalars = append(r.scalars, len(r.probes))
	}
	r.probes = append(r.probes, e)
}

// Counter registers and returns a counter probe.
func (r *Registry) Counter(name string, d Desc) *Counter {
	c := &Counter{}
	r.CounterOf(name, d, &c.v)
	return c
}

// CounterOf registers a read-through counter whose value is *slot, a count
// the instrumented component keeps and increments itself.
func (r *Registry) CounterOf(name string, d Desc, slot *int64) {
	r.register(probeEntry{name: name, kind: KindCounter, desc: d, slot: slot})
}

// Gauge registers and returns a gauge probe.
func (r *Registry) Gauge(name string, d Desc) *Gauge {
	g := &Gauge{}
	r.register(probeEntry{name: name, kind: KindGauge, desc: d, slot: &g.v})
	return g
}

// GaugeFunc registers a gauge whose level is read by calling fn — only when
// a snapshot fires, so the instrumented hot path pays nothing. Use it for
// occupancies and queue depths that are already tracked by the component.
func (r *Registry) GaugeFunc(name string, d Desc, fn func() int64) {
	if fn == nil {
		panic("telemetry: GaugeFunc registered with a nil function")
	}
	r.register(probeEntry{name: name, kind: KindGaugeFunc, desc: d, gaugeFn: fn})
}

// Histogram registers and returns a fixed-bucket histogram with the given
// sorted upper bounds.
func (r *Registry) Histogram(name string, d Desc, bounds []int64) *Histogram {
	h := newHistogram(bounds)
	r.register(probeEntry{name: name, kind: KindHistogram, desc: d, hist: h})
	return h
}

// ScalarNames returns the names of all scalar (non-histogram) probes in
// registration order — the column schema of every Snapshot.
func (r *Registry) ScalarNames() []string {
	out := make([]string, len(r.scalars))
	for i, idx := range r.scalars {
		out[i] = r.probes[idx].name
	}
	return out
}

// ScalarKinds returns the kinds of all scalar probes, aligned with
// ScalarNames.
func (r *Registry) ScalarKinds() []Kind {
	out := make([]Kind, len(r.scalars))
	for i, idx := range r.scalars {
		out[i] = r.probes[idx].kind
	}
	return out
}

// Snapshot reads every scalar probe into a fresh slice aligned with
// ScalarNames. GaugeFuncs are invoked here and nowhere else.
func (r *Registry) Snapshot() []int64 {
	out := make([]int64, len(r.scalars))
	for i, idx := range r.scalars {
		out[i] = r.probes[idx].scalarValue()
	}
	return out
}

// Value returns the current value of the named scalar probe.
func (r *Registry) Value(name string) (int64, bool) {
	idx, ok := r.index[name]
	if !ok || r.probes[idx].kind == KindHistogram {
		return 0, false
	}
	return r.probes[idx].scalarValue(), true
}

// FindHistogram returns the named histogram, or nil.
func (r *Registry) FindHistogram(name string) *Histogram {
	idx, ok := r.index[name]
	if !ok || r.probes[idx].kind != KindHistogram {
		return nil
	}
	return r.probes[idx].hist
}
