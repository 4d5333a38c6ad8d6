package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
)

// specSeeds builds a KMN xy/yx spec over the given seeds: 2*len(seeds) jobs.
func specSeeds(seeds ...uint64) sweep.Spec {
	return sweep.Spec{
		Benchmarks:    []string{"KMN"},
		Routings:      []config.Routing{config.RoutingXY, config.RoutingYX},
		Seeds:         seeds,
		WarmupCycles:  100,
		MeasureCycles: 400,
	}
}

// instantRun is a deterministic fake executor: every job succeeds with the
// same result shape, so records depend only on the job.
func instantRun(_ context.Context, j sweep.Job) (gpu.Result, error) {
	return gpu.Result{Benchmark: j.Benchmark, IPC: 1}, nil
}

func newTestFabric(t *testing.T, opts Options) (*Coordinator, *Server) {
	t.Helper()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(store, opts)
	srv, err := NewServer("127.0.0.1:0", co)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return co, srv
}

// startWorker runs a worker loop in the background; the returned stop
// cancels it and waits for the goroutine to exit, making BatchesDone safe
// to read afterwards.
func startWorker(ctx context.Context, w *Worker) (stop func()) {
	ctx, cancel := context.WithCancel(ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = w.Run(ctx)
	}()
	return func() {
		cancel()
		<-done
	}
}

// waitFinished polls a sweep's status until it reports finished.
func waitFinished(t *testing.T, co *Coordinator, id string, timeout time.Duration) SweepStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := co.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		if st.Finished() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweep %s not finished after %v: %+v", id, timeout, st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestWireJobRoundTrip: a job must survive the wire encoding with its
// fingerprint intact — that identity is the store address.
func TestWireJobRoundTrip(t *testing.T) {
	for _, j := range testJobs(t) {
		wire := ToWire(j)
		data, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var back WireJob
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		got := back.Job()
		if fp := got.Fingerprint(); fp != wire.Fingerprint {
			t.Fatalf("job %s: fingerprint drifted over the wire: sent %s, recomputed %s",
				j.Key, wire.Fingerprint, fp)
		}
		if got.Key != j.Key || got.Benchmark != j.Benchmark {
			t.Fatalf("job identity drifted: %+v vs %+v", got, j)
		}
	}
}

// TestSubmitLeaseComplete drives the coordinator's happy path directly:
// submit, lease in batches, complete, and read results back in expansion
// order.
func TestSubmitLeaseComplete(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(store, Options{LeaseJobs: 2})

	spec := specSeeds(1, 2)
	resp, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Total != 4 || resp.Pending != 4 || resp.Cached != 0 {
		t.Fatalf("submit = %+v, want 4 total, 4 pending", resp)
	}

	reg, err := co.Register(RegisterRequest{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 2; batch++ {
		lease, err := co.Lease(LeaseRequest{WorkerID: reg.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Jobs) != 2 {
			t.Fatalf("batch %d: leased %d jobs, want 2", batch, len(lease.Jobs))
		}
		var recs []sweep.Record
		for _, wj := range lease.Jobs {
			recs = append(recs, okRecord(wj.Job()))
		}
		comp, err := co.Complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: lease.LeaseID, Records: recs})
		if err != nil {
			t.Fatal(err)
		}
		if comp.Accepted != 2 || comp.Requeued != 0 || comp.Ignored != 0 {
			t.Fatalf("batch %d: complete = %+v", batch, comp)
		}
	}

	st, err := co.Status(resp.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished() || st.Done != 4 || st.Failed != 0 {
		t.Fatalf("status = %+v, want 4 done", st)
	}

	jobs, _, _ := spec.Expand()
	recs, finished, err := co.Results(resp.SweepID)
	if err != nil || !finished {
		t.Fatalf("Results: finished=%v err=%v", finished, err)
	}
	if len(recs) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(recs), len(jobs))
	}
	for i, rec := range recs {
		if want := jobs[i].Fingerprint(); rec.Fingerprint != want {
			t.Fatalf("result %d out of expansion order: got %s, want %s", i, rec.Fingerprint, want)
		}
	}
	if store.Len() != 4 {
		t.Fatalf("store holds %d records, want 4", store.Len())
	}
}

// TestDuplicateSubmitServedFromStore: resubmitting an identical spec — to
// the same coordinator or to a fresh one over the same store — must run
// zero new simulations.
func TestDuplicateSubmitServedFromStore(t *testing.T) {
	storeDir := t.TempDir()
	store, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(store, Options{LeaseJobs: 2, LeaseTTL: 2 * time.Second})
	srv, err := NewServer("127.0.0.1:0", co)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	var sims atomic.Int64
	countingRun := func(ctx context.Context, j sweep.Job) (gpu.Result, error) {
		sims.Add(1)
		return instantRun(ctx, j)
	}

	// Submit over HTTP, like a real client.
	spec := specSeeds(1, 2)
	specJSON, _ := json.Marshal(spec)
	httpResp, err := http.Post(base+"/submit", "application/json", bytes.NewReader(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	var sub SubmitResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if sub.Total != 4 || sub.Pending != 4 {
		t.Fatalf("submit = %+v", sub)
	}

	w := NewWorker(base, WorkerOptions{Run: countingRun, Poll: 10 * time.Millisecond})
	stop := startWorker(context.Background(), w)
	waitFinished(t, co, sub.SweepID, 10*time.Second)
	stop()
	if w.BatchesDone() == 0 {
		t.Fatal("worker completed no batches")
	}
	if n := sims.Load(); n != 4 {
		t.Fatalf("first run simulated %d jobs, want 4", n)
	}

	// Same coordinator, same spec: idempotent — nothing pending, no sims.
	again, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.SweepID != sub.SweepID || again.Pending != 0 {
		t.Fatalf("resubmit = %+v, want same sweep with 0 pending", again)
	}

	// Fresh coordinator on the same store (restart / crash-resume): every
	// job answered from disk at submit time.
	store2, err := OpenStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	co2 := NewCoordinator(store2, Options{})
	resub, err := co2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if resub.Cached != 4 || resub.Pending != 0 {
		t.Fatalf("restart resubmit = %+v, want 4 cached, 0 pending", resub)
	}
	if v := metricValue(string(co2.Metrics()), "fleet_store_hits_total"); v != 4 {
		t.Fatalf("restarted coordinator's fleet_store_hits_total = %g, want 4", v)
	}
	st, err := co2.Status(resub.SweepID)
	if err != nil || !st.Finished() {
		t.Fatalf("restarted sweep not finished: %+v err=%v", st, err)
	}
	// The same grid over an explicit default base is the same simulations:
	// a different spec (and sweep), answered entirely from the same store.
	explicit := config.Default()
	spelled := spec
	spelled.Base = &explicit
	resub2, err := co2.Submit(spelled)
	if err != nil {
		t.Fatal(err)
	}
	if resub2.SweepID == resub.SweepID || resub2.Cached != 4 || resub2.Pending != 0 {
		t.Fatalf("explicit-base resubmit = %+v, want a new sweep with 4 cached, 0 pending", resub2)
	}
	if n := sims.Load(); n != 4 {
		t.Fatalf("resubmits triggered simulations: %d total, want 4", n)
	}
}

// TestSubmitConcurrent: Submit expands outside the coordinator's lock, so
// two clients posting one spec at once may both expand it. Exactly one of
// them registers the sweep; every caller gets the same answer, and jobs,
// store hits and queue entries are counted once.
func TestSubmitConcurrent(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// Enough seeds that an expansion outlasts the release of the clients:
	// they overlap in Expand and race to register.
	const seeds, cached = 400, 2
	spec := specSeeds()
	for s := uint64(1); s <= seeds; s++ {
		spec.Seeds = append(spec.Seeds, s)
	}
	jobs, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:cached] {
		if err := store.Put(sweep.Record{Fingerprint: j.Fingerprint(), Status: sweep.StatusOK}); err != nil {
			t.Fatal(err)
		}
	}
	co := NewCoordinator(store, Options{})

	const clients = 8
	resps := make([]SubmitResponse, clients)
	errs := make([]error, clients)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resps[i], errs[i] = co.Submit(spec)
		}()
	}
	close(start)
	wg.Wait()

	total := len(jobs) // 2 routings x seeds
	want := SubmitResponse{SweepID: SweepID(spec), Total: total, Cached: cached, Pending: total - cached}
	for i := range resps {
		if errs[i] != nil || resps[i] != want {
			t.Errorf("client %d: %+v, %v; want %+v", i, resps[i], errs[i], want)
		}
	}
	co.mu.Lock()
	defer co.mu.Unlock()
	if len(co.sweeps) != 1 || len(co.sweepOrder) != 1 || len(co.jobs) != total || len(co.queue) != total-cached {
		t.Errorf("%d sweeps (%d ordered), %d jobs, %d queued; want 1 (1), %d, %d",
			len(co.sweeps), len(co.sweepOrder), len(co.jobs), len(co.queue), total, total-cached)
	}
	if s, e, h := co.met.submits.Value(), co.met.jobsExpanded.Value(), co.met.storeHits.Value(); s != 1 || e != int64(total) || h != cached || co.storeHits != cached {
		t.Errorf("submits %d, jobs expanded %d, store hits %d (%d); want 1, %d, %d (%d)", s, e, h, co.storeHits, total, cached, cached)
	}
}

// TestWorkerLostMidLease: a worker that leases jobs and goes silent loses
// its lease at the TTL; a live worker then completes the re-queued jobs.
func TestWorkerLostMidLease(t *testing.T) {
	co, srv := newTestFabric(t, Options{
		LeaseJobs:   2,
		LeaseTTL:    100 * time.Millisecond,
		MaxAttempts: 5,
	})
	sub, err := co.Submit(specSeeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}

	// The ghost: registers, takes a lease, never heartbeats, never reports.
	ghost, err := co.Register(RegisterRequest{Name: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	lease, err := co.Lease(LeaseRequest{WorkerID: ghost.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	if len(lease.Jobs) != 2 {
		t.Fatalf("ghost leased %d jobs, want 2", len(lease.Jobs))
	}

	w := NewWorker("http://"+srv.Addr(), WorkerOptions{Name: "live", Run: instantRun, Poll: 10 * time.Millisecond})
	stop := startWorker(context.Background(), w)
	defer stop()

	st := waitFinished(t, co, sub.SweepID, 10*time.Second)
	if st.Done != 4 || st.Failed != 0 {
		t.Fatalf("status after ghost loss = %+v, want 4 done", st)
	}
	// The ghost's lease must actually be gone, not just overtaken.
	hb, err := co.Heartbeat(HeartbeatRequest{WorkerID: ghost.WorkerID, LeaseID: lease.LeaseID})
	if err != nil {
		t.Fatal(err)
	}
	if hb.OK {
		t.Fatal("ghost lease still alive after expiry")
	}
}

// TestPoisonQuarantine: a job that fails on every attempt is quarantined at
// the attempt cap with a terminal failure record, and the sweep still
// finishes. The failure record is served by Result but never cached.
func TestPoisonQuarantine(t *testing.T) {
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	co := NewCoordinator(store, Options{LeaseJobs: 4, MaxAttempts: 2})

	spec := specSeeds(1, 2)
	jobs, _, _ := spec.Expand()
	poison := jobs[2].Fingerprint()

	sub, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := co.Register(RegisterRequest{Name: "t"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		lease, err := co.Lease(LeaseRequest{WorkerID: reg.WorkerID})
		if err != nil {
			t.Fatal(err)
		}
		if len(lease.Jobs) == 0 {
			break
		}
		var recs []sweep.Record
		for _, wj := range lease.Jobs {
			rec := okRecord(wj.Job())
			if rec.Fingerprint == poison {
				rec.Status = sweep.StatusFailed
				rec.Error = "boom"
			}
			recs = append(recs, rec)
		}
		if _, err := co.Complete(CompleteRequest{WorkerID: reg.WorkerID, LeaseID: lease.LeaseID, Records: recs}); err != nil {
			t.Fatal(err)
		}
	}

	st, err := co.Status(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Finished() || st.Done != 3 || st.Failed != 1 {
		t.Fatalf("status = %+v, want finished with 3 done / 1 failed", st)
	}
	rec, err := co.Result(poison)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Status != sweep.StatusFailed || rec.Error == "" {
		t.Fatalf("quarantine record = %+v, want terminal failure", rec)
	}
	if _, ok := store.Get(poison); ok {
		t.Fatal("poison job's failure record leaked into the content store")
	}
	recs, finished, err := co.Results(sub.SweepID)
	if err != nil || !finished || len(recs) != 4 {
		t.Fatalf("Results: %d records, finished=%v, err=%v", len(recs), finished, err)
	}
}

// TestConcurrentWorkers runs a 24-job grid through three workers over real
// HTTP, killing one mid-run; exercised under -race by CI. The sweep must
// finish with every record in the store and results in expansion order.
func TestConcurrentWorkers(t *testing.T) {
	co, srv := newTestFabric(t, Options{
		LeaseJobs:   2,
		LeaseTTL:    500 * time.Millisecond,
		MaxAttempts: 10,
	})
	base := "http://" + srv.Addr()

	spec := specSeeds(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12)
	jobs, _, _ := spec.Expand()
	if len(jobs) != 24 {
		t.Fatalf("grid has %d jobs, want 24", len(jobs))
	}
	sub, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}

	slowRun := func(ctx context.Context, j sweep.Job) (gpu.Result, error) {
		time.Sleep(2 * time.Millisecond) // keep leases overlapping across workers
		return instantRun(ctx, j)
	}
	var stops []func()
	for i := 0; i < 3; i++ {
		w := NewWorker(base, WorkerOptions{
			Name: fmt.Sprintf("w%d", i),
			Run:  slowRun,
			Poll: 5 * time.Millisecond,
		})
		stops = append(stops, startWorker(context.Background(), w))
	}
	// Kill the first worker mid-run; its in-flight lease either posts
	// partial results or expires and re-queues.
	time.Sleep(20 * time.Millisecond)
	stops[0]()

	st := waitFinished(t, co, sub.SweepID, 30*time.Second)
	for _, stop := range stops[1:] {
		stop()
	}
	if st.Done != 24 || st.Failed != 0 {
		t.Fatalf("status = %+v, want 24 done", st)
	}
	recs, finished, err := co.Results(sub.SweepID)
	if err != nil || !finished || len(recs) != 24 {
		t.Fatalf("Results: %d records, finished=%v, err=%v", len(recs), finished, err)
	}
	for i, rec := range recs {
		if want := jobs[i].Fingerprint(); rec.Fingerprint != want {
			t.Fatalf("result %d out of expansion order", i)
		}
	}
}

// TestCrossModeGolden: the 4-job smoke spec through the real simulator must
// produce byte-identical JSONL from (a) the single-process engine, which
// writes in job order itself, and (b) a coordinator with two workers,
// fetched from /sweeps/{id}/results. This is the distributed-determinism
// contract.
func TestCrossModeGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	data, err := os.ReadFile("../../examples/sweepspec_smoke.json")
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sweep.ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	jobs, _, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}

	// Single-process reference: the engine straight into JSONL, like
	// `cmd/sweep`.
	var single bytes.Buffer
	if _, err := sweep.Run(context.Background(), jobs, sweep.NewJSONL(&single), sweep.Options{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	// Fabric: coordinator + two workers running the same sweep.Simulate.
	co, srv := newTestFabric(t, Options{LeaseJobs: 1, LeaseTTL: 2 * time.Minute})
	base := "http://" + srv.Addr()
	sub, err := co.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	var stops []func()
	for i := 0; i < 2; i++ {
		w := NewWorker(base, WorkerOptions{Name: fmt.Sprintf("w%d", i), Poll: 10 * time.Millisecond})
		stops = append(stops, startWorker(context.Background(), w))
	}
	waitFinished(t, co, sub.SweepID, 5*time.Minute)
	for _, stop := range stops {
		stop()
	}

	httpResp, err := http.Get(base + "/sweeps/" + sub.SweepID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer httpResp.Body.Close()
	var fabricOut bytes.Buffer
	if _, err := fabricOut.ReadFrom(httpResp.Body); err != nil {
		t.Fatal(err)
	}

	// Byte-identical modulo the Exec footprint: wall time, allocation, and
	// worker placement legitimately differ per mode, which is exactly why
	// Record.Canonical exists. Compare the canonical encodings.
	if !bytes.Equal(canonicalJSONL(t, single.Bytes()), canonicalJSONL(t, fabricOut.Bytes())) {
		t.Fatalf("cross-mode output mismatch:\nsingle-process (%d bytes):\n%s\nfabric (%d bytes):\n%s",
			single.Len(), single.String(), fabricOut.Len(), fabricOut.String())
	}
}

// canonicalJSONL re-encodes a record stream in canonical (Exec-stripped)
// form for cross-mode byte comparison.
func canonicalJSONL(t *testing.T, data []byte) []byte {
	t.Helper()
	recs, err := sweep.ReadRecords(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	sink := sweep.NewJSONL(&out)
	for _, rec := range recs {
		if err := sink.Write(rec.Canonical()); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}
