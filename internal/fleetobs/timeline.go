package fleetobs

import (
	"fmt"
	"io"
	"sort"

	"gpgpunoc/internal/telemetry"
)

// Span kinds used in job timelines. These are strings, not Kind values:
// timelines are a queryable API surface (JSON over HTTP), not a hot-path
// ring, so readability wins.
const (
	SpanQueued   = "queued"    // submitted/re-queued, waiting for a lease
	SpanLease    = "lease"     // leased to a worker, running (or presumed so)
	SpanCacheHit = "cache_hit" // satisfied from the content-addressed store
	SpanDone     = "done"      // terminal: record accepted
	SpanFailed   = "failed"    // terminal: quarantined as poison
	SpanExpired  = "expired"   // lease died unrenewed; job went back to queue
	SpanWorker   = "worker"    // worker-side sub-span shipped in the complete payload
)

// TSpan is one interval (or instant) in a job's lifecycle. Times are
// milliseconds since the sweep was submitted; EndMS == -1 means the span is
// still open. Worker and Attempt are set for lease/worker/terminal spans.
type TSpan struct {
	Kind       string `json:"kind"`
	StartMS    int64  `json:"start_ms"`
	EndMS      int64  `json:"end_ms"`
	Worker     string `json:"worker,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
	Heartbeats int    `json:"heartbeats,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// JobTimeline is the full span history of one job, identified by its
// fingerprint and human-readable key.
type JobTimeline struct {
	Fingerprint string  `json:"fingerprint"`
	Key         string  `json:"key"`
	Spans       []TSpan `json:"spans"`
}

// Timeline is the /sweeps/{id}/timeline payload.
type Timeline struct {
	SweepID     string         `json:"sweep_id"`
	StartUnixMS int64          `json:"start_unix_ms"`
	NowMS       int64          `json:"now_ms"` // ms since submit, clamps open spans
	Jobs        []*JobTimeline `json:"jobs"`
}

// WriteChromeTimeline renders the timeline as a Chrome trace-event JSON
// array loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. Each job
// becomes one "thread" named by its key; spans become complete ("X") events
// and zero-length spans become instants.
func WriteChromeTimeline(w io.Writer, tl *Timeline) error {
	events := []telemetry.TraceEvent{{
		Name: "process_name", Ph: "M", PID: 1,
		Args: map[string]any{"name": "sweep " + tl.SweepID},
	}}
	jobs := make([]*JobTimeline, len(tl.Jobs))
	copy(jobs, tl.Jobs)
	sort.Slice(jobs, func(i, j int) bool { return jobs[i].Key < jobs[j].Key })
	for ti, jt := range jobs {
		tid := ti + 1
		events = append(events, telemetry.TraceEvent{
			Name: "thread_name", Ph: "M", PID: 1, TID: tid,
			Args: map[string]any{"name": jt.Key},
		})
		for _, sp := range jt.Spans {
			name := sp.Kind
			if sp.Worker != "" {
				name = fmt.Sprintf("%s (%s)", sp.Kind, sp.Worker)
			}
			args := map[string]any{}
			if sp.Worker != "" {
				args["worker"] = sp.Worker
			}
			if sp.Attempt > 0 {
				args["attempt"] = sp.Attempt
			}
			if sp.Heartbeats > 0 {
				args["heartbeats"] = sp.Heartbeats
			}
			if sp.Detail != "" {
				args["detail"] = sp.Detail
			}
			if len(args) == 0 {
				args = nil
			}
			end := sp.EndMS
			if end < 0 {
				end = tl.NowMS
			}
			if end <= sp.StartMS {
				events = append(events, telemetry.TraceEvent{
					Name: name, Ph: "i", TS: sp.StartMS * 1000,
					PID: 1, TID: tid, S: "t", Args: args,
				})
				continue
			}
			dur := (end - sp.StartMS) * 1000
			events = append(events, telemetry.TraceEvent{
				Name: name, Ph: "X", TS: sp.StartMS * 1000, Dur: &dur,
				PID: 1, TID: tid, Args: args,
			})
		}
	}
	return telemetry.WriteTraceArray(w, events)
}
