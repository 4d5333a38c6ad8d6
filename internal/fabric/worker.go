// The worker loop: register, pull a lease, run the batch through the
// single-process sweep engine (same RunFuncs, same panic shielding, same
// timeouts — a job result cannot depend on which machine produced it),
// heartbeat while simulating, post the records back, repeat. The loop is
// deliberately dumb: all scheduling intelligence lives in the coordinator,
// so a worker crash at any point loses nothing but its lease.

package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"gpgpunoc/internal/sweep"
)

// WorkerOptions tune a worker.
type WorkerOptions struct {
	// Name labels the worker in /workers (default: assigned worker ID).
	Name string
	// Run substitutes the job executor; nil means sweep.Simulate.
	Run sweep.RunFunc
	// Jobs is the engine concurrency within a lease batch (0 = GOMAXPROCS).
	Jobs int
	// Timeout aborts one job after this long (0 = none).
	Timeout time.Duration
	// Poll is the idle re-poll fallback when the coordinator gives no
	// wait hint (0 = 500ms).
	Poll time.Duration
	// Client overrides the HTTP client (nil = 30s-timeout default).
	Client *http.Client
	// Logf receives operational log lines (nil = silent).
	Logf func(format string, args ...any)
}

// Worker runs jobs for a coordinator. Construct with NewWorker, then Run.
// Its activity is observed on the coordinator's /metrics, which carries
// each worker's leases, jobs and heartbeat age.
type Worker struct {
	base string
	opts WorkerOptions

	id          string
	heartbeat   time.Duration
	batchesDone int
}

// NewWorker returns a worker for the coordinator at baseURL
// (e.g. "http://127.0.0.1:9178").
func NewWorker(baseURL string, opts WorkerOptions) *Worker {
	if opts.Run == nil {
		opts.Run = sweep.Simulate
	}
	if opts.Poll <= 0 {
		opts.Poll = 500 * time.Millisecond
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 30 * time.Second}
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	return &Worker{base: strings.TrimRight(baseURL, "/"), opts: opts}
}

// Run registers and serves leases until ctx is cancelled. Transient
// coordinator errors (it may not be up yet, or restarting) are retried
// with a fixed backoff; only ctx cancellation ends the loop.
func (w *Worker) Run(ctx context.Context) error {
	for {
		if err := w.register(ctx); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			w.opts.Logf("fabric: register: %v (retrying)", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		break
	}
	w.opts.Logf("fabric: registered as %s (heartbeat %v)", w.id, w.heartbeat)

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		var lease LeaseResponse
		err := w.call(ctx, "/lease", LeaseRequest{WorkerID: w.id, Max: 0}, &lease)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// An unknown-worker rejection means the coordinator restarted:
			// re-register under a fresh identity and carry on.
			if strings.Contains(err.Error(), "re-register") {
				if rerr := w.register(ctx); rerr == nil {
					w.opts.Logf("fabric: re-registered as %s", w.id)
					continue
				}
			}
			w.opts.Logf("fabric: lease: %v (retrying)", err)
			if !sleepCtx(ctx, w.opts.Poll) {
				return ctx.Err()
			}
			continue
		}
		if len(lease.Jobs) == 0 {
			wait := w.opts.Poll
			if lease.WaitMS > 0 {
				wait = time.Duration(lease.WaitMS) * time.Millisecond
			}
			if !sleepCtx(ctx, wait) {
				return ctx.Err()
			}
			continue
		}
		w.runLease(ctx, lease)
	}
}

// BatchesDone reports how many leases this worker has completed (test and
// log visibility).
func (w *Worker) BatchesDone() int { return w.batchesDone }

// runLease executes one lease batch and posts its records.
func (w *Worker) runLease(ctx context.Context, lease LeaseResponse) {
	jobs := make([]sweep.Job, 0, len(lease.Jobs))
	var badRecs []sweep.Record
	for _, wj := range lease.Jobs {
		j := wj.Job()
		// The coordinator's fingerprint is the store address; if our
		// recomputation disagrees, the configuration did not survive the
		// wire and running it would file a result under the wrong key.
		if got := j.Fingerprint(); got != wj.Fingerprint {
			rec := sweep.NewRecord(j)
			rec.Fingerprint = wj.Fingerprint
			rec.Status = sweep.StatusFailed
			rec.Error = fmt.Sprintf("fabric: fingerprint mismatch: coordinator %s, worker %s (serialization drift)", wj.Fingerprint, got)
			badRecs = append(badRecs, rec)
			continue
		}
		jobs = append(jobs, j)
	}

	// Heartbeat for the duration of the batch; a failed renewal (lease
	// expired, coordinator restarted) cancels the batch so the worker
	// stops burning cycles on jobs already re-assigned.
	hbCtx, hbCancel := context.WithCancel(ctx)
	defer hbCancel()
	go w.heartbeatLoop(hbCtx, lease.LeaseID, hbCancel)

	var mem sweep.Memory
	sc := newSpanCollector()
	start := time.Now()
	if len(jobs) > 0 {
		_, runErr := sweep.Run(hbCtx, jobs, &mem, sweep.Options{
			Workers:  w.opts.Jobs,
			Timeout:  w.opts.Timeout,
			Run:      w.opts.Run,
			Progress: sc.note,
		})
		if runErr != nil {
			w.opts.Logf("fabric: lease %s aborted: %v", lease.LeaseID, runErr)
		}
	}
	hbCancel()

	recs := append(mem.Records(), badRecs...)
	w.opts.Logf("fabric: lease %s: %d/%d records in %.1fs",
		lease.LeaseID, len(recs), len(lease.Jobs), time.Since(start).Seconds())

	// Post results even when the batch was cut short — the coordinator
	// accepts records regardless of lease state, and partial results are
	// exactly what makes a killed worker cheap. Use a fresh context so a
	// cancelled worker still files what it finished.
	postCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var resp CompleteResponse
	req := CompleteRequest{WorkerID: w.id, LeaseID: lease.LeaseID, Records: recs, Spans: sc.take()}
	for attempt := 0; attempt < 3; attempt++ {
		if err := w.call(postCtx, "/complete", req, &resp); err != nil {
			w.opts.Logf("fabric: complete: %v (attempt %d)", err, attempt+1)
			if !sleepCtx(postCtx, 200*time.Millisecond) {
				return
			}
			continue
		}
		w.batchesDone++
		return
	}
}

// spanCollector turns engine progress events into the worker-run sub-spans
// shipped back in the complete payload. The engine fires Progress from its
// worker goroutines, hence the mutex; offsets are relative to collector
// creation (the batch start the coordinator anchors against).
type spanCollector struct {
	mu    sync.Mutex
	start time.Time
	open  map[string]int64 // fingerprint -> start offset of the running job
	spans []WireSpan
}

func newSpanCollector() *spanCollector {
	return &spanCollector{start: time.Now(), open: map[string]int64{}}
}

func (sc *spanCollector) note(ev sweep.Event) {
	off := time.Since(sc.start).Milliseconds()
	fp := ev.Job.Fingerprint()
	sc.mu.Lock()
	defer sc.mu.Unlock()
	switch ev.Type {
	case sweep.EventStart:
		sc.open[fp] = off
	case sweep.EventDone, sweep.EventFail:
		startOff := sc.open[fp]
		delete(sc.open, fp)
		sc.spans = append(sc.spans, WireSpan{
			Fingerprint: fp,
			StartOffMS:  startOff,
			EndOffMS:    off,
			OK:          ev.Type == sweep.EventDone,
		})
	}
}

// take returns the collected spans (jobs still open — a cut-short batch —
// are omitted: they produced no record, so there is nothing to anchor).
func (sc *spanCollector) take() []WireSpan {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.spans
}

// heartbeatLoop renews the lease until the batch context ends; a rejected
// renewal cancels the batch.
func (w *Worker) heartbeatLoop(ctx context.Context, leaseID string, cancel context.CancelFunc) {
	t := time.NewTicker(w.heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			var resp HeartbeatResponse
			if err := w.call(ctx, "/heartbeat", HeartbeatRequest{WorkerID: w.id, LeaseID: leaseID}, &resp); err != nil {
				continue // transient: the TTL gives us slack to retry
			}
			if !resp.OK {
				w.opts.Logf("fabric: lease %s lost: abandoning batch", leaseID)
				cancel()
				return
			}
		}
	}
}

func (w *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	if err := w.call(ctx, "/register", RegisterRequest{Name: w.opts.Name, Jobs: w.opts.Jobs}, &resp); err != nil {
		return err
	}
	w.id = resp.WorkerID
	hb := time.Duration(resp.HeartbeatMS) * time.Millisecond
	if hb <= 0 {
		hb = time.Second
	}
	w.heartbeat = hb
	return nil
}

// call POSTs a JSON request and decodes the JSON response.
func (w *Worker) call(ctx context.Context, path string, reqBody, respBody any) error {
	data, err := json.Marshal(reqBody)
	if err != nil {
		return fmt.Errorf("fabric: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+path, bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", path, err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.opts.Client.Do(req)
	if err != nil {
		return fmt.Errorf("fabric: %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
		return fmt.Errorf("fabric: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if respBody == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(respBody); err != nil {
		return fmt.Errorf("fabric: decode %s: %w", path, err)
	}
	return nil
}

// sleepCtx sleeps d or until ctx is done, reporting whether the full sleep
// elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
