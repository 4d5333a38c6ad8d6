// Fleet observability for the coordinator: the telemetry registry behind
// /metrics, the per-job span timelines behind /sweeps/{id}/timeline, and
// the coordinator-side flight recorder. Everything here runs under the
// coordinator's single mutex — the probes and timelines are plain fields,
// the rendered exposition is published through an obs.Snapshot, and the
// flight recorder's single-writer contract is the mutex itself.
//
// This file (like coordinator.go) is service code on the wall-clock side of
// the determinism boundary: it may read time because nothing here feeds
// back into simulation results.

package fabric

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/telemetry"
)

// fleetMetrics is the coordinator's probe set. Counters are bumped at the
// state transitions they name; gauges are recomputed in publishLocked.
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

	queueDepth *telemetry.Gauge
	running    *telemetry.Gauge
}

func newFleetMetrics() *fleetMetrics {
	reg := telemetry.NewRegistry()
	counter := func(field, help string) *telemetry.Counter {
		return reg.Counter("fleet."+field, telemetry.Desc{Family: "fleet_" + field + "_total", Help: help})
	}
	gauge := func(field, help string) *telemetry.Gauge {
		return reg.Gauge("fleet."+field, telemetry.Desc{Family: "fleet_" + field, Help: help})
	}
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
		queueDepth:    gauge("queue_depth", "Jobs currently waiting for a lease."),
		running:       gauge("running", "Jobs currently leased out."),
	}
}

// registerWorkerProbes adds the per-worker gauge set for w. GaugeFuncs are
// read only when publishLocked renders the exposition — under c.mu, the
// same lock every workerState mutation holds — so the closures are
// race-free by construction.
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
// of every timeline span and fabric-side flight event.
func (c *Coordinator) nowMS() int64 { return time.Since(c.start).Milliseconds() }

// workerNum extracts the ordinal from a coordinator-assigned worker ID
// ("w12" -> 12; 0 for anything else) for flight-event payloads.
func workerNum(id string) int64 {
	n, err := strconv.ParseInt(strings.TrimPrefix(id, "w"), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

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

// dumpCoordFlight writes the coordinator's flight-recorder snapshot (lease
// expiry is the fabric-side post-mortem trigger). Best-effort: a dump
// failure is logged, never propagated.
func (c *Coordinator) dumpCoordFlight(reason string) {
	if c.flight == nil || c.opts.FlightDir == "" {
		return
	}
	name := "coordinator-" + strings.ReplaceAll(reason, " ", "-")
	path, err := c.flight.Dump(c.opts.FlightDir, name, "coordinator", reason)
	if err != nil {
		c.opts.Logf("fabric: flight dump: %v", err)
		return
	}
	c.opts.Logf("fabric: flight dump written: %s", path)
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

// renderMetricsLocked renders the Prometheus exposition, appending the one
// derived sample the registry's int64 probes cannot express: jobs/sec over
// the coordinator's lifetime.
func (c *Coordinator) renderMetricsLocked() []byte {
	b := c.met.reg.RenderPrometheus()
	secs := time.Since(c.start).Seconds()
	rate := 0.0
	if secs > 0 {
		rate = float64(c.met.jobsDone.Value()) / secs
	}
	extra := fmt.Sprintf("# HELP fleet_jobs_per_second OK records accepted per second of coordinator uptime.\n# TYPE fleet_jobs_per_second gauge\nfleet_jobs_per_second %g\n", rate)
	return append(b, extra...)
}
