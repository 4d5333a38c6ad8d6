package telemetry

import (
	"bytes"
	"fmt"
	"sort"
)

// promType is the Prometheus TYPE of a probe kind.
func (k Kind) promType() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindHistogram:
		return "histogram"
	default:
		return "gauge"
	}
}

// braced wraps a rendered label body (plus an optional extra pair) in
// braces; an empty set renders as nothing.
func braced(labels, extra string) string {
	if labels != "" && extra != "" {
		labels += ","
	}
	if labels+extra == "" {
		return ""
	}
	return "{" + labels + extra + "}"
}

// RenderPrometheus renders every probe as Prometheus text exposition
// (version 0.0.4) from the family, help and labels each probe was registered
// with. The output is deterministic: families sorted by name, samples in
// probe registration order, histogram buckets cumulative in bound order. A
// family's HELP and TYPE come from its first registered probe.
func (r *Registry) RenderPrometheus() []byte {
	members := map[string][]int{}
	var families []string
	for i := range r.probes {
		f := r.probes[i].desc.Family
		if _, seen := members[f]; !seen {
			families = append(families, f)
		}
		members[f] = append(members[f], i)
	}
	sort.Strings(families)

	var buf bytes.Buffer
	for _, f := range families {
		first := &r.probes[members[f][0]]
		fmt.Fprintf(&buf, "# HELP %s %s\n# TYPE %s %s\n", f, first.desc.Help, f, first.kind.promType())
		for _, i := range members[f] {
			p := &r.probes[i]
			if p.kind != KindHistogram {
				fmt.Fprintf(&buf, "%s%s %d\n", f, braced(p.labels, ""), p.scalarValue())
				continue
			}
			var cum int64
			for b, bound := range p.hist.bounds {
				cum += p.hist.counts[b]
				fmt.Fprintf(&buf, "%s_bucket%s %d\n", f, braced(p.labels, fmt.Sprintf(`le="%d"`, bound)), cum)
			}
			fmt.Fprintf(&buf, "%s_bucket%s %d\n", f, braced(p.labels, `le="+Inf"`), p.hist.count)
			fmt.Fprintf(&buf, "%s_sum%s %d\n", f, braced(p.labels, ""), p.hist.sum)
			fmt.Fprintf(&buf, "%s_count%s %d\n", f, braced(p.labels, ""), p.hist.count)
		}
	}
	return buf.Bytes()
}
