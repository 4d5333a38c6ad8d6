// Fleet observability for the coordinator: the two records every transition
// writes — the telemetry registry behind /metrics and the per-job span
// timelines behind /sweeps/{id}/timeline — and the views rendered from them
// when they are requested. Everything here runs under the coordinator's
// single mutex: the probes and timelines are plain fields, and a scrape
// renders them under the same lock as any other API entry.
//
// This file (like coordinator.go) is service code on the wall-clock side of
// the determinism boundary: it may read time because nothing here feeds
// back into simulation results.

package fabric

import (
	"fmt"
	"time"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/telemetry"
)

// fleetMetrics is the coordinator's probe set. Counters are bumped at the
// state transitions they name; gauges read coordinator state when Metrics
// renders.
type fleetMetrics struct {
	reg *telemetry.Registry

	submits       *telemetry.Counter
	jobsExpanded  *telemetry.Counter
	leasesGranted *telemetry.Counter
	leasesExpired *telemetry.Counter
	heartbeats    *telemetry.Counter
	retries       *telemetry.Counter
	requeued      *telemetry.Counter
	quarantined   *telemetry.Counter
	storeHits     *telemetry.Counter
	storeMisses   *telemetry.Counter
	jobsDone      *telemetry.Counter
	jobsFailed    *telemetry.Counter
	workers       *telemetry.Counter
}

// newFleetMetrics registers c's probe set. Its two gauges, like the
// per-worker ones, are GaugeFuncs over coordinator state, read only while
// Metrics holds c.mu.
func newFleetMetrics(c *Coordinator) *fleetMetrics {
	reg := telemetry.NewRegistry()
	counter := func(field, help string) *telemetry.Counter {
		return reg.Counter("fleet."+field, telemetry.Desc{Family: "fleet_" + field + "_total", Help: help})
	}
	gauge := func(field, help string, fn func() int64) {
		reg.GaugeFunc("fleet."+field, telemetry.Desc{Family: "fleet_" + field, Help: help}, fn)
	}
	gauge("queue_depth", "Jobs currently waiting for a lease.", func() int64 { return int64(len(c.queue)) })
	gauge("running", "Jobs currently leased out.", func() int64 { return int64(c.progressLocked().Leased) })
	return &fleetMetrics{
		reg:           reg,
		submits:       counter("submits", "Sweep submissions accepted by the coordinator."),
		jobsExpanded:  counter("jobs", "Jobs expanded across all sweeps."),
		leasesGranted: counter("leases_granted", "Leases granted to workers."),
		leasesExpired: counter("leases_expired", "Leases that died unrenewed and were reclaimed."),
		heartbeats:    counter("heartbeats", "Lease renewals received."),
		retries:       counter("retries", "Job attempts beyond the first."),
		requeued:      counter("requeued", "Jobs returned to the queue after a failed attempt."),
		quarantined:   counter("quarantined", "Poison-job quarantine events."),
		storeHits:     counter("store_hits", "Jobs satisfied from the content-addressed result store."),
		storeMisses:   counter("store_misses", "Jobs that missed the result store and must run."),
		jobsDone:      counter("jobs_done", "OK records accepted from any worker."),
		jobsFailed:    counter("jobs_failed", "Failed job attempts reported by any worker."),
		workers:       counter("workers", "Workers ever registered with the coordinator."),
	}
}

// registerWorkerProbes adds the per-worker gauge set for w. GaugeFuncs are
// read only when Metrics renders the exposition — under c.mu, the same lock
// every workerState mutation holds — so the closures are race-free by
// construction.
func (c *Coordinator) registerWorkerProbes(w *workerState) {
	gauge := func(field, help string, fn func() int64) {
		c.met.reg.GaugeFunc("fleet.worker."+w.id+"."+field, telemetry.Desc{
			Family: "fleet_worker_" + field,
			Help:   help,
			Labels: []string{"worker", w.id},
		}, fn)
	}
	gauge("leases_held", "Leases this worker currently holds.", func() int64 { return int64(w.leases) })
	gauge("lease_grants", "Leases ever granted to this worker.", func() int64 { return int64(w.grants) })
	gauge("jobs_done", "Records accepted from this worker.", func() int64 { return int64(w.done) })
	gauge("jobs_failed", "Failed attempts reported by this worker.", func() int64 { return int64(w.failed) })
	gauge("heartbeat_age_ms", "Milliseconds since this worker was last heard from.", func() int64 {
		return time.Since(w.lastSeen).Milliseconds()
	})
}

// nowMS returns milliseconds since the coordinator started — the time base
// of every timeline span.
func (c *Coordinator) nowMS() int64 { return time.Since(c.start).Milliseconds() }

// timelineLocked returns (creating if needed) the span timeline for fp.
func (c *Coordinator) timelineLocked(fp string, tj *trackedJob) *fleetobs.JobTimeline {
	jt, ok := c.tline[fp]
	if !ok {
		jt = &fleetobs.JobTimeline{Fingerprint: fp, Key: tj.job.Key}
		c.tline[fp] = jt
	}
	return jt
}

// tlCloseOpenLocked closes fp's open span (EndMS == -1) at now, returning
// it for further annotation (nil when no span is open).
func (c *Coordinator) tlCloseOpenLocked(fp string, now int64) *fleetobs.TSpan {
	jt := c.tline[fp]
	if jt == nil || len(jt.Spans) == 0 {
		return nil
	}
	sp := &jt.Spans[len(jt.Spans)-1]
	if sp.EndMS != -1 {
		return nil
	}
	sp.EndMS = now
	return sp
}

// tlAppendLocked appends a span to fp's timeline.
func (c *Coordinator) tlAppendLocked(fp string, tj *trackedJob, sp fleetobs.TSpan) {
	jt := c.timelineLocked(fp, tj)
	jt.Spans = append(jt.Spans, sp)
}

// Timeline assembles the /sweeps/{id}/timeline payload: every job of the
// sweep with its full span history, in expansion order.
func (c *Coordinator) Timeline(id string) (*fleetobs.Timeline, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	sw, ok := c.sweeps[id]
	if !ok {
		return nil, errf(404, "fabric: unknown sweep %q", id)
	}
	tl := &fleetobs.Timeline{
		SweepID:     id,
		StartUnixMS: c.start.UnixMilli(),
		NowMS:       c.nowMS(),
	}
	for _, fp := range sw.fps {
		jt := c.tline[fp]
		if jt == nil {
			continue
		}
		// Deep-copy so the handler's JSON encoding happens outside the lock
		// on bytes the coordinator will not mutate.
		cp := &fleetobs.JobTimeline{
			Fingerprint: jt.Fingerprint,
			Key:         jt.Key,
			Spans:       append([]fleetobs.TSpan(nil), jt.Spans...),
		}
		tl.Jobs = append(tl.Jobs, cp)
	}
	return tl, nil
}

// attachWorkerSpansLocked merges the worker-side sub-spans shipped in a
// complete payload into the job timelines. Worker offsets are relative to
// the batch start; the coordinator anchors them at the job's last lease
// grant — an approximation (network latency and queueing inside the batch
// shift the anchor), documented as such in DESIGN.md §15.
func (c *Coordinator) attachWorkerSpansLocked(workerID string, spans []WireSpan) {
	for _, ws := range spans {
		tj, ok := c.jobs[ws.Fingerprint]
		if !ok {
			continue
		}
		anchor := tj.lastGrantMS
		detail := ""
		if !ws.OK {
			detail = "failed"
		}
		c.tlAppendLocked(ws.Fingerprint, tj, fleetobs.TSpan{
			Kind:    fleetobs.SpanWorker,
			StartMS: anchor + ws.StartOffMS,
			EndMS:   anchor + ws.EndOffMS,
			Worker:  workerID,
			Attempt: tj.attempts,
			Detail:  detail,
		})
	}
}

// Metrics renders the Prometheus exposition as of the call — the /metrics
// body — appending the one derived sample the registry's int64 probes
// cannot express: jobs/sec over the coordinator's lifetime.
func (c *Coordinator) Metrics() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	b := c.met.reg.RenderPrometheus()
	secs := time.Since(c.start).Seconds()
	rate := 0.0
	if secs > 0 {
		rate = float64(c.met.jobsDone.Value()) / secs
	}
	extra := fmt.Sprintf("# HELP fleet_jobs_per_second OK records accepted per second of coordinator uptime.\n# TYPE fleet_jobs_per_second gauge\nfleet_jobs_per_second %g\n", rate)
	return append(b, extra...)
}
