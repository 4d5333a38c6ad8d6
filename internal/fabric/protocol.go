// Package fabric turns the sweep engine into a shared simulation service:
// a coordinator expands submitted sweep specs into fingerprint-keyed jobs,
// shards them across registered workers by bounded lease, and streams the
// results into a content-addressed store so identical configurations are
// never simulated twice — across runs, clients, or machines. Workers
// register over HTTP, pull lease batches, execute them through the exact
// single-process engine (sweep.Run with the production RunFuncs), and post
// the records back.
//
// No command runs the fabric: cmd/sweep is single-process. The package
// remains as the subject of the repository benchmark's fabric_short
// workload.
//
// Robustness model: every lease carries a deadline that worker heartbeats
// extend; a worker that goes silent forfeits its lease and the coordinator
// re-queues the unfinished jobs for the next worker. Attempts are capped —
// a job that keeps killing workers or failing is quarantined as a poison
// job with a failure record rather than looping forever. The store is the
// crash-resume substrate: a restarted coordinator reloads it and serves
// every previously-completed fingerprint without re-simulation.
//
// Determinism: the grid is expanded by the same sweep.Spec.Expand as
// single-process mode and results are served in expansion order, so a
// distributed sweep's JSONL is byte-identical to a single-process run of
// the same spec (modulo which machine did the work).
package fabric

import (
	"gpgpunoc/internal/config"
	"gpgpunoc/internal/sweep"
)

// WireJob is one job on the wire: the sweep job plus the coordinator's
// fingerprint for it. The worker recomputes the fingerprint from the
// decoded configuration and refuses the job on mismatch — a serialization
// drift between coordinator and worker must surface as an error, not as a
// result filed under the wrong key.
type WireJob struct {
	Key         string        `json:"key"`
	Benchmark   string        `json:"benchmark"`
	Cfg         config.Config `json:"cfg"`
	Fingerprint string        `json:"fingerprint"`
}

// Job converts back to the engine's job type.
func (w WireJob) Job() sweep.Job {
	return sweep.Job{Key: w.Key, Benchmark: w.Benchmark, Cfg: w.Cfg}
}

// ToWire converts an engine job for transmission.
func ToWire(j sweep.Job) WireJob {
	return WireJob{Key: j.Key, Benchmark: j.Benchmark, Cfg: j.Cfg, Fingerprint: j.Fingerprint()}
}

// RegisterRequest announces a worker to the coordinator.
type RegisterRequest struct {
	Name string `json:"name"`
	Jobs int    `json:"jobs"` // worker's engine concurrency, for sizing leases
}

// RegisterResponse assigns the worker its identity and the lease timing the
// coordinator enforces — workers never configure their own TTL, so the two
// sides cannot disagree about when a lease dies.
type RegisterResponse struct {
	WorkerID    string `json:"worker_id"`
	LeaseTTLMS  int64  `json:"lease_ttl_ms"`
	HeartbeatMS int64  `json:"heartbeat_ms"`
}

// LeaseRequest asks for a batch of jobs.
type LeaseRequest struct {
	WorkerID string `json:"worker_id"`
	Max      int    `json:"max,omitempty"` // 0 = coordinator's batch size
}

// LeaseResponse hands out a lease. Empty Jobs means nothing is pending;
// the worker should poll again after WaitMS.
type LeaseResponse struct {
	LeaseID string    `json:"lease_id,omitempty"`
	Jobs    []WireJob `json:"jobs,omitempty"`
	WaitMS  int64     `json:"wait_ms,omitempty"`
}

// HeartbeatRequest renews a lease.
type HeartbeatRequest struct {
	WorkerID string `json:"worker_id"`
	LeaseID  string `json:"lease_id"`
}

// HeartbeatResponse acknowledges a renewal. OK=false means the lease is
// gone (expired and re-queued): the worker should abandon the batch —
// results it still posts are accepted anyway, they just may duplicate work
// already re-assigned.
type HeartbeatResponse struct {
	OK bool `json:"ok"`
}

// CompleteRequest posts a lease's finished records. Records are matched to
// jobs by fingerprint; the lease merely closes bookkeeping, so results
// from an expired lease still count. Spans carries the worker-side run
// sub-spans for the coordinator's job timelines; it is advisory — a worker
// that sends none loses only timeline detail.
type CompleteRequest struct {
	WorkerID string         `json:"worker_id"`
	LeaseID  string         `json:"lease_id"`
	Records  []sweep.Record `json:"records"`
	Spans    []WireSpan     `json:"spans,omitempty"`
}

// WireSpan is one worker-side execution sub-span shipped back in a complete
// payload. Offsets are milliseconds relative to the worker's batch start;
// the coordinator re-anchors them at the job's lease-grant time.
type WireSpan struct {
	Fingerprint string `json:"fingerprint"`
	StartOffMS  int64  `json:"start_off_ms"`
	EndOffMS    int64  `json:"end_off_ms"`
	OK          bool   `json:"ok"`
}

// CompleteResponse reports what the coordinator did with the records.
type CompleteResponse struct {
	Accepted int `json:"accepted"` // terminal: stored OK or quarantined
	Requeued int `json:"requeued"` // failed with attempts left: back in queue
	Ignored  int `json:"ignored"`  // unknown fingerprint or already done
}

// SubmitResponse answers a spec submission. Submission is idempotent: the
// sweep ID is a content hash of the spec, so re-submitting returns the
// same sweep, with Cached counting the jobs served from the store without
// any simulation.
type SubmitResponse struct {
	SweepID string `json:"sweep_id"`
	Total   int    `json:"total"`
	Cached  int    `json:"cached"`
	Pending int    `json:"pending"`
	Skipped int    `json:"skipped"` // invalid grid points dropped by SkipInvalid
}

// SweepStatus is the /sweeps/{id} payload.
type SweepStatus struct {
	ID      string `json:"id"`
	Total   int    `json:"total"`
	Done    int    `json:"done"`   // OK records, including store hits
	Failed  int    `json:"failed"` // failure records, including quarantined poison jobs
	Leased  int    `json:"leased"`
	Pending int    `json:"pending"`
	Cached  int    `json:"cached"` // of Done, how many came from the store at submit
	Skipped int    `json:"skipped"`
	Status  string `json:"status"` // "running" or "done"
}

// Finished reports whether every job reached a terminal state.
func (s SweepStatus) Finished() bool { return s.Done+s.Failed == s.Total }

// WorkerInfo is one row of the /workers payload.
type WorkerInfo struct {
	ID           string  `json:"id"`
	Name         string  `json:"name"`
	Leases       int     `json:"leases"` // currently held
	JobsDone     int     `json:"jobs_done"`
	JobsFailed   int     `json:"jobs_failed"`
	LastSeenSecs float64 `json:"last_seen_secs"` // since last request
}

// Progress is the coordinator's /progress payload: job counts across every
// sweep it serves.
type Progress struct {
	Sweeps         int     `json:"sweeps"`
	Jobs           int     `json:"jobs"`
	Done           int     `json:"done"`
	Failed         int     `json:"failed"`
	Leased         int     `json:"leased"`
	Pending        int     `json:"pending"`
	Workers        int     `json:"workers"`
	StoreRecords   int     `json:"store_records"`
	StoreHits      int     `json:"store_hits"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
}
