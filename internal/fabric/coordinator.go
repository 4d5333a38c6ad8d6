// The coordinator: sweep bookkeeping, the job queue, and the lease state
// machine. One mutex guards everything — the unit of work here is a
// bookkeeping update between simulations that each take orders of
// magnitude longer, so contention is irrelevant and the single lock keeps
// every transition atomic and easy to reason about.
//
// Job lifecycle:
//
//	submit ──(store hit)──────────────────────────────▶ done (cached)
//	submit ──▶ pending ──lease──▶ leased ──complete──▶ done
//	                ▲               │
//	                │          lease expiry /
//	                │          worker-reported failure
//	                │               │
//	                └── attempts < MaxAttempts
//	                                │ attempts == MaxAttempts
//	                                ▼
//	                          done (quarantined poison job)
//
// Leases expire lazily: every API entry point — a /metrics or /progress
// scrape included — first sweeps the lease table for deadlines the
// heartbeats failed to extend. There is no background reaper goroutine — a
// coordinator nobody talks to has nothing to do — and lazy expiry keeps the
// whole state machine synchronous and testable.

package fabric

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/sweep"
)

// idleWaitMS is the poll-again hint returned with an empty lease.
const idleWaitMS = 500

// Options tune a coordinator.
type Options struct {
	// LeaseTTL is how long a lease lives without renewal.
	LeaseTTL time.Duration
	// LeaseJobs bounds the jobs handed out per lease.
	LeaseJobs int
	// MaxAttempts caps hand-outs per job before poison quarantine.
	MaxAttempts int
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = 30 * time.Second
	}
	if o.LeaseJobs < 1 {
		o.LeaseJobs = 4
	}
	if o.MaxAttempts < 1 {
		o.MaxAttempts = 3
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

type jobState int

const (
	statePending jobState = iota // in the queue, waiting for a worker
	stateLeased                  // handed to a worker, lease live
	stateDone                    // terminal record filed (OK or failed)
)

type trackedJob struct {
	job      sweep.Job
	fp       string
	state    jobState
	attempts int           // lease grants consumed
	leaseID  string        // current lease when stateLeased
	rec      *sweep.Record // terminal record when stateDone
	lastErr  string        // most recent failure, for the quarantine record

	lastWorker  string // worker of the most recent lease grant
	lastGrantMS int64  // nowMS of the most recent lease grant (timeline anchor)
}

type sweepRun struct {
	id      string
	fps     []string // expansion order — the order results are served in
	skipped int
	cached  int // jobs answered from the store at submit time
}

type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	leases   int
	grants   int // leases ever granted
	done     int
	failed   int
}

type lease struct {
	id      string
	worker  string
	fps     []string
	expires time.Time
}

// Coordinator owns the shared sweep state. Construct with NewCoordinator.
type Coordinator struct {
	opts  Options
	store *Store
	start time.Time

	mu          sync.Mutex
	jobs        map[string]*trackedJob // by fingerprint
	queue       []string               // pending fingerprints, FIFO
	sweeps      map[string]*sweepRun
	sweepOrder  []string
	workers     map[string]*workerState
	workerOrder []string
	leases      map[string]*lease
	nextWorker  int
	nextLease   int
	storeHits   int

	met   *fleetMetrics                    // /metrics probe set (fleet.go)
	tline map[string]*fleetobs.JobTimeline // per-fingerprint span timelines
}

// NewCoordinator returns a coordinator backed by the given store.
func NewCoordinator(store *Store, opts Options) *Coordinator {
	opts.fill()
	c := &Coordinator{
		opts:    opts,
		store:   store,
		start:   time.Now(),
		jobs:    map[string]*trackedJob{},
		sweeps:  map[string]*sweepRun{},
		workers: map[string]*workerState{},
		leases:  map[string]*lease{},
		tline:   map[string]*fleetobs.JobTimeline{},
	}
	c.met = newFleetMetrics(c)
	return c
}

// coordErr is an API error with an HTTP status for the server layer.
type coordErr struct {
	status int
	msg    string
}

func (e *coordErr) Error() string { return e.msg }

func errf(status int, format string, args ...any) error {
	return &coordErr{status: status, msg: fmt.Sprintf(format, args...)}
}

// SweepID derives the deterministic identity of a spec: a content hash of
// its canonical JSON. Identical specs are the same sweep, which is what
// makes Submit idempotent.
func SweepID(spec sweep.Spec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// Spec is a plain value struct; Marshal cannot fail.
		panic("fabric: sweep id encoding: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return "s" + hex.EncodeToString(sum[:6])
}

// Submit registers a sweep: the spec is expanded with the engine's own
// deterministic expansion, store hits complete immediately with their
// cached records, and the rest join the job queue. Submitting a spec that
// is already known returns the existing sweep.
func (c *Coordinator) Submit(spec sweep.Spec) (SubmitResponse, error) {
	id := SweepID(spec)

	c.mu.Lock()
	c.expireLocked(time.Now())
	resp, known := c.knownSweepLocked(id)
	c.mu.Unlock()
	if known {
		return resp, nil
	}

	// Expansion validates every job and proves each structure it sees for
	// the first time — tens of milliseconds on a 16x16 mesh — so it runs
	// outside the lock: leases, heartbeats and completes do not wait for it.
	jobs, skips, err := spec.Expand()
	if err != nil {
		return SubmitResponse{}, errf(http.StatusBadRequest, "fabric: submit: %v", err)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	// A concurrent Submit of the same spec may have registered it meanwhile;
	// the second one in answers from the first's registration.
	if resp, known = c.knownSweepLocked(id); known {
		return resp, nil
	}
	now := c.nowMS()
	c.met.submits.Inc()
	sw := &sweepRun{id: id, fps: make([]string, 0, len(jobs)), skipped: len(skips)}
	for _, j := range jobs {
		fp := j.Fingerprint()
		sw.fps = append(sw.fps, fp)
		if tj, ok := c.jobs[fp]; ok {
			// Already tracked — done, leased, or queued by another sweep.
			if tj.state == stateDone && tj.rec != nil && tj.rec.Status == sweep.StatusOK {
				sw.cached++
				c.storeHits++
				c.met.storeHits.Inc()
			}
			continue
		}
		c.met.jobsExpanded.Inc()
		tj := &trackedJob{job: j, fp: fp}
		if rec, ok := c.store.Get(fp); ok {
			tj.state = stateDone
			tj.rec = &rec
			sw.cached++
			c.storeHits++
			c.met.storeHits.Inc()
			c.tlAppendLocked(fp, tj, fleetobs.TSpan{Kind: fleetobs.SpanCacheHit, StartMS: now, EndMS: now})
		} else {
			tj.state = statePending
			c.queue = append(c.queue, fp)
			c.met.storeMisses.Inc()
			c.tlAppendLocked(fp, tj, fleetobs.TSpan{Kind: fleetobs.SpanQueued, StartMS: now, EndMS: -1})
		}
		c.jobs[fp] = tj
	}
	c.sweeps[id] = sw
	c.sweepOrder = append(c.sweepOrder, id)
	resp = c.submitResponseLocked(sw)
	c.opts.Logf("fabric: sweep %s submitted: %d jobs, %d cached, %d pending, %d skipped",
		id, resp.Total, resp.Cached, resp.Pending, resp.Skipped)
	return resp, nil
}

// knownSweepLocked answers a Submit of an already registered sweep.
func (c *Coordinator) knownSweepLocked(id string) (SubmitResponse, bool) {
	sw, ok := c.sweeps[id]
	if !ok {
		return SubmitResponse{}, false
	}
	return c.submitResponseLocked(sw), true
}

func (c *Coordinator) submitResponseLocked(sw *sweepRun) SubmitResponse {
	resp := SubmitResponse{SweepID: sw.id, Total: len(sw.fps), Cached: sw.cached, Skipped: sw.skipped}
	for _, fp := range sw.fps {
		if tj := c.jobs[fp]; tj != nil && tj.state != stateDone {
			resp.Pending++
		}
	}
	return resp
}

// Register adds a worker and returns its identity plus the lease timing it
// must obey.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	id := fmt.Sprintf("w%d", c.nextWorker)
	name := req.Name
	if name == "" {
		name = id
	}
	w := &workerState{id: id, name: name, lastSeen: time.Now()}
	c.workers[id] = w
	c.workerOrder = append(c.workerOrder, id)
	c.met.workers.Inc()
	c.registerWorkerProbes(w)
	c.opts.Logf("fabric: worker %s (%s) registered", id, name)
	return RegisterResponse{
		WorkerID:    id,
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMS: max(c.opts.LeaseTTL/3, time.Millisecond).Milliseconds(), // three renewals per lease
	}, nil
}

// Lease hands the worker the next batch of pending jobs, bounded by the
// coordinator's batch size (and the worker's own Max, when smaller).
func (c *Coordinator) Lease(req LeaseRequest) (LeaseResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	w, ok := c.workers[req.WorkerID]
	if !ok {
		return LeaseResponse{}, errf(http.StatusConflict, "fabric: unknown worker %q (re-register)", req.WorkerID)
	}
	w.lastSeen = now

	n := c.opts.LeaseJobs
	if req.Max > 0 && req.Max < n {
		n = req.Max
	}
	var fps []string
	var jobs []WireJob
	for len(jobs) < n && len(c.queue) > 0 {
		fp := c.queue[0]
		c.queue = c.queue[1:]
		tj := c.jobs[fp]
		if tj == nil || tj.state != statePending {
			continue // completed by a late post or re-queued twice; stale entry
		}
		tj.state = stateLeased
		tj.attempts++
		fps = append(fps, fp)
		jobs = append(jobs, ToWire(tj.job))
	}
	if len(jobs) == 0 {
		return LeaseResponse{WaitMS: idleWaitMS}, nil
	}
	c.nextLease++
	l := &lease{
		id:      fmt.Sprintf("l%d", c.nextLease),
		worker:  w.id,
		fps:     fps,
		expires: now.Add(c.opts.LeaseTTL),
	}
	grantMS := c.nowMS()
	for _, fp := range fps {
		tj := c.jobs[fp]
		tj.leaseID = l.id
		tj.lastWorker = w.id
		tj.lastGrantMS = grantMS
		if tj.attempts > 1 {
			c.met.retries.Inc()
		}
		c.tlCloseOpenLocked(fp, grantMS)
		c.tlAppendLocked(fp, tj, fleetobs.TSpan{
			Kind: fleetobs.SpanLease, StartMS: grantMS, EndMS: -1,
			Worker: w.id, Attempt: tj.attempts,
		})
	}
	c.leases[l.id] = l
	w.leases++
	w.grants++
	c.met.leasesGranted.Inc()
	c.opts.Logf("fabric: lease %s -> %s: %d jobs", l.id, w.id, len(jobs))
	return LeaseResponse{LeaseID: l.id, Jobs: jobs}, nil
}

// Heartbeat extends a lease's deadline. OK=false tells the worker the
// lease is gone and the batch should be abandoned.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	if w, ok := c.workers[req.WorkerID]; ok {
		w.lastSeen = now
	}
	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.WorkerID {
		return HeartbeatResponse{OK: false}, nil
	}
	l.expires = now.Add(c.opts.LeaseTTL)
	c.met.heartbeats.Inc()
	// Stamp the renewal on each job's open lease span so timelines show a
	// live worker versus one that went silent.
	for _, fp := range l.fps {
		if jt := c.tline[fp]; jt != nil && len(jt.Spans) > 0 {
			sp := &jt.Spans[len(jt.Spans)-1]
			if sp.Kind == fleetobs.SpanLease && sp.EndMS == -1 {
				sp.Heartbeats++
			}
		}
	}
	return HeartbeatResponse{OK: true}, nil
}

// Complete files a lease's records. Records are matched to jobs by
// fingerprint and accepted even when the lease already expired — a correct
// result is a correct result; the lease only closes bookkeeping. OK records
// enter the content-addressed store; failures retry until the attempt cap,
// then quarantine.
func (c *Coordinator) Complete(req CompleteRequest) (CompleteResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	w := c.workers[req.WorkerID]
	if w != nil {
		w.lastSeen = now
	}

	var resp CompleteResponse
	nowMS := c.nowMS()
	for _, rec := range req.Records {
		tj, ok := c.jobs[rec.Fingerprint]
		if !ok || tj.state == stateDone {
			resp.Ignored++
			continue
		}
		if rec.Status == sweep.StatusOK {
			// Stamp fleet-level attribution into the execution footprint
			// before the record is stored: which worker produced the accepted
			// result, on which attempt. A private Exec copy keeps the
			// caller's request value untouched.
			r := rec
			e := sweep.Exec{}
			if r.Exec != nil {
				e = *r.Exec
			}
			e.Worker = req.WorkerID
			e.Attempt = tj.attempts
			r.Exec = &e
			if err := c.store.Put(r); err != nil {
				return resp, errf(http.StatusInternalServerError, "fabric: %v", err)
			}
			tj.state = stateDone
			tj.rec = &r
			tj.leaseID = ""
			resp.Accepted++
			if w != nil {
				w.done++
			}
			c.met.jobsDone.Inc()
			c.tlCloseOpenLocked(tj.fp, nowMS)
			c.tlAppendLocked(tj.fp, tj, fleetobs.TSpan{
				Kind: fleetobs.SpanDone, StartMS: nowMS, EndMS: nowMS,
				Worker: req.WorkerID, Attempt: tj.attempts,
			})
			continue
		}
		// A worker-reported failure consumes the attempt its lease granted.
		tj.lastErr = rec.Error
		if w != nil {
			w.failed++
		}
		c.met.jobsFailed.Inc()
		if sp := c.tlCloseOpenLocked(tj.fp, nowMS); sp != nil && sp.Kind == fleetobs.SpanLease {
			sp.Detail = "failed"
		}
		if tj.attempts >= c.opts.MaxAttempts {
			c.quarantineLocked(tj, fmt.Sprintf("poison job: failed %d/%d attempts, last: %s",
				tj.attempts, c.opts.MaxAttempts, rec.Error))
			resp.Accepted++
			continue
		}
		tj.state = statePending
		tj.leaseID = ""
		c.queue = append(c.queue, tj.fp)
		resp.Requeued++
		c.met.requeued.Inc()
		c.tlAppendLocked(tj.fp, tj, fleetobs.TSpan{Kind: fleetobs.SpanQueued, StartMS: nowMS, EndMS: -1})
	}
	c.attachWorkerSpansLocked(req.WorkerID, req.Spans)

	if l, ok := c.leases[req.LeaseID]; ok && l.worker == req.WorkerID {
		delete(c.leases, req.LeaseID)
		if w != nil && w.leases > 0 {
			w.leases--
		}
		// Jobs the lease covered but the worker did not report (a cancelled
		// batch posts partial results) go straight back to the queue rather
		// than waiting out the TTL.
		c.releaseLeaseJobsLocked(l, "returned unfinished by "+req.WorkerID, false)
	}
	return resp, nil
}

// quarantineLocked files the terminal failure record for a poison job. The
// record carries the last worker that held the job — the one whose failure
// (or disappearance) exhausted the attempt budget — for attribution.
func (c *Coordinator) quarantineLocked(tj *trackedJob, msg string) {
	rec := sweep.NewRecord(tj.job)
	rec.Status = sweep.StatusFailed
	rec.Error = msg
	rec.Exec = &sweep.Exec{Worker: tj.lastWorker, Attempt: tj.attempts}
	tj.state = stateDone
	tj.rec = &rec
	tj.leaseID = ""
	c.met.quarantined.Inc()
	now := c.nowMS()
	c.tlCloseOpenLocked(tj.fp, now)
	c.tlAppendLocked(tj.fp, tj, fleetobs.TSpan{
		Kind: fleetobs.SpanFailed, StartMS: now, EndMS: now,
		Worker: tj.lastWorker, Attempt: tj.attempts, Detail: msg,
	})
	c.opts.Logf("fabric: job %s quarantined: %s", tj.fp, msg)
}

// expireLocked re-queues (or quarantines) the jobs of every lease whose
// deadline passed without renewal — the silent-worker path.
func (c *Coordinator) expireLocked(now time.Time) {
	if len(c.leases) == 0 {
		return
	}
	var expired []string
	for id, l := range c.leases {
		if now.After(l.expires) {
			expired = append(expired, id)
		}
	}
	sort.Strings(expired)
	for _, id := range expired {
		l := c.leases[id]
		delete(c.leases, id)
		if w := c.workers[l.worker]; w != nil && w.leases > 0 {
			w.leases--
		}
		c.met.leasesExpired.Inc()
		c.opts.Logf("fabric: lease %s (%s) expired: re-queueing", id, l.worker)
		c.releaseLeaseJobsLocked(l, "worker "+l.worker+" lost (lease expired)", true)
	}
}

// releaseLeaseJobsLocked returns a dead lease's unfinished jobs to the
// queue, quarantining the ones that exhausted their attempts. expired
// distinguishes a TTL expiry (silent worker) from a voluntary return
// (partial batch) on the job timelines.
func (c *Coordinator) releaseLeaseJobsLocked(l *lease, why string, expired bool) {
	now := c.nowMS()
	for _, fp := range l.fps {
		tj := c.jobs[fp]
		if tj == nil || tj.state != stateLeased || tj.leaseID != l.id {
			continue
		}
		c.tlCloseOpenLocked(fp, now)
		if expired {
			c.tlAppendLocked(fp, tj, fleetobs.TSpan{
				Kind: fleetobs.SpanExpired, StartMS: now, EndMS: now,
				Worker: l.worker, Attempt: tj.attempts,
			})
		}
		if tj.attempts >= c.opts.MaxAttempts {
			msg := fmt.Sprintf("poison job: %s after %d/%d attempts", why, tj.attempts, c.opts.MaxAttempts)
			if tj.lastErr != "" {
				msg += ", last error: " + tj.lastErr
			}
			c.quarantineLocked(tj, msg)
			continue
		}
		tj.state = statePending
		tj.leaseID = ""
		c.queue = append(c.queue, fp)
		c.tlAppendLocked(fp, tj, fleetobs.TSpan{Kind: fleetobs.SpanQueued, StartMS: now, EndMS: -1})
	}
}

// Status reports a sweep's progress.
func (c *Coordinator) Status(id string) (SweepStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	sw, ok := c.sweeps[id]
	if !ok {
		return SweepStatus{}, errf(http.StatusNotFound, "fabric: unknown sweep %q", id)
	}
	return c.statusLocked(sw), nil
}

func (c *Coordinator) statusLocked(sw *sweepRun) SweepStatus {
	st := SweepStatus{ID: sw.id, Total: len(sw.fps), Cached: sw.cached, Skipped: sw.skipped}
	for _, fp := range sw.fps {
		tj := c.jobs[fp]
		switch {
		case tj == nil:
		case tj.state == stateDone && tj.rec.Status == sweep.StatusOK:
			st.Done++
		case tj.state == stateDone:
			st.Failed++
		case tj.state == stateLeased:
			st.Leased++
		default:
			st.Pending++
		}
	}
	st.Status = "running"
	if st.Finished() {
		st.Status = "done"
	}
	return st
}

// Results returns a sweep's terminal records in expansion order — the same
// order a single-process `cmd/sweep` run writes them — plus
// whether the sweep is finished. Unfinished jobs are simply absent: the
// prefix property of expansion order is NOT promised mid-run, only that
// every present record sits at its expansion position relative to the
// others.
func (c *Coordinator) Results(id string) ([]sweep.Record, bool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[id]
	if !ok {
		return nil, false, errf(http.StatusNotFound, "fabric: unknown sweep %q", id)
	}
	var recs []sweep.Record
	for _, fp := range sw.fps {
		if tj := c.jobs[fp]; tj != nil && tj.state == stateDone && tj.rec != nil {
			recs = append(recs, *tj.rec)
		}
	}
	return recs, c.statusLocked(sw).Finished(), nil
}

// Result returns the stored record for one fingerprint — the raw
// content-addressed lookup behind /results/{fingerprint}.
func (c *Coordinator) Result(fp string) (sweep.Record, error) {
	if rec, ok := c.store.Get(fp); ok {
		return rec, nil
	}
	// Quarantined jobs have terminal records that never enter the store.
	c.mu.Lock()
	defer c.mu.Unlock()
	if tj, ok := c.jobs[fp]; ok && tj.state == stateDone && tj.rec != nil {
		return *tj.rec, nil
	}
	return sweep.Record{}, errf(http.StatusNotFound, "fabric: no result for fingerprint %q", fp)
}

// Workers reports the registered workers in registration order.
func (c *Coordinator) Workers() []WorkerInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	now := time.Now()
	out := make([]WorkerInfo, 0, len(c.workerOrder))
	for _, id := range c.workerOrder {
		w := c.workers[id]
		out = append(out, WorkerInfo{
			ID: w.id, Name: w.name, Leases: w.leases,
			JobsDone: w.done, JobsFailed: w.failed,
			LastSeenSecs: now.Sub(w.lastSeen).Seconds(),
		})
	}
	return out
}

// Progress reports the fleet-wide job counts as of the call: the /progress
// payload.
func (c *Coordinator) Progress() Progress {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	return c.progressLocked()
}

func (c *Coordinator) progressLocked() Progress {
	p := Progress{
		Sweeps:         len(c.sweepOrder),
		Jobs:           len(c.jobs),
		Workers:        len(c.workerOrder),
		StoreRecords:   c.store.Len(),
		StoreHits:      c.storeHits,
		ElapsedSeconds: time.Since(c.start).Seconds(),
	}
	for _, tj := range c.jobs {
		switch {
		case tj.state == stateDone && tj.rec != nil && tj.rec.Status == sweep.StatusOK:
			p.Done++
		case tj.state == stateDone:
			p.Failed++
		case tj.state == stateLeased:
			p.Leased++
		default:
			p.Pending++
		}
	}
	return p
}
