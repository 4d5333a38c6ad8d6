package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
)

// okRun is a RunFunc returning an empty successful result instantly.
func okRun(ctx context.Context, j Job) (gpu.Result, error) {
	return gpu.Result{Benchmark: j.Benchmark, IPC: 1}, nil
}

func smallSpec() Spec {
	return Spec{
		Benchmarks:    []string{"KMN", "BFS"},
		Routings:      []config.Routing{config.RoutingXY, config.RoutingYX},
		VCPolicies:    []config.VCPolicy{config.VCSplit, config.VCMonopolized},
		Seeds:         []uint64{1, 2},
		WarmupCycles:  200,
		MeasureCycles: 800,
	}
}

func TestExpandGrid(t *testing.T) {
	jobs, skips, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(skips) != 0 {
		t.Fatalf("unexpected skips: %v", skips)
	}
	if len(jobs) != 16 {
		t.Fatalf("2 benches x 2 routings x 2 policies x 2 seeds = 16 jobs, got %d", len(jobs))
	}
	seen := map[string]bool{}
	for _, j := range jobs {
		if seen[j.Key] {
			t.Fatalf("duplicate key %s", j.Key)
		}
		seen[j.Key] = true
		if j.Cfg.WarmupCycles != 200 || j.Cfg.MeasureCycles != 800 {
			t.Fatalf("cycle overrides not applied: %+v", j.Cfg)
		}
	}
	// Nested-loop order is part of the contract (resume depends on a
	// stable grid): expanding twice gives the identical job list.
	again, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if jobs[i].Key != again[i].Key {
			t.Fatalf("expansion order unstable at %d: %s vs %s", i, jobs[i].Key, again[i].Key)
		}
	}
}

// TestExpandKeys pins every job key of a grid with multi-digit VC counts,
// depths and seeds to the format keys have always had, byte for byte: a key
// names a job in records, skips and logs.
func TestExpandKeys(t *testing.T) {
	spec := Spec{
		Benchmarks:  []string{"KMN", "SRAD"},
		Placements:  []config.Placement{config.PlacementBottom, config.PlacementTopBottom},
		Routings:    []config.Routing{config.RoutingXY, config.RoutingXYYX},
		VCPolicies:  []config.VCPolicy{config.VCSplit, config.VCPartialMonopolized},
		VCsPerPort:  []int{2, 10, 12},
		VCDepths:    []int{4, 16},
		Seeds:       []uint64{0, 7, 1234577, 18446744073709551615},
		SkipInvalid: true,
	}
	jobs, skips, err := spec.Expand()
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, j := range jobs {
		keys = append(keys, j.Key)
		want := fmt.Sprintf("%s/%s/%s/%s/v%dd%d/s%d", j.Benchmark, j.Cfg.Placement, j.Cfg.NoC.Routing,
			j.Cfg.NoC.VCPolicy, j.Cfg.NoC.VCsPerPort, j.Cfg.NoC.VCDepth, j.Cfg.Seed)
		if j.Key != want {
			t.Errorf("job key %q, want %q", j.Key, want)
		}
	}
	for _, sk := range skips {
		keys = append(keys, sk.Key)
	}
	if got, grid := len(keys), 2*2*2*2*3*2*4; got != grid {
		t.Fatalf("%d jobs and skips, want the whole grid of %d", got, grid)
	}
	for _, k := range []string{"SRAD/top-bottom/xy-yx/partial/v12d16/s18446744073709551615", "KMN/bottom/xy/split/v10d4/s0"} {
		if !slices.Contains(keys, k) {
			t.Errorf("no job or skip has key %q", k)
		}
	}
}

// BenchmarkExpand expands a 432-job grid, the size of the repository
// benchmark's sweep.
func BenchmarkExpand(b *testing.B) {
	spec := Spec{
		Benchmarks:    []string{"KMN", "BFS", "RAY"},
		Placements:    []config.Placement{config.PlacementBottom},
		Routings:      []config.Routing{config.RoutingXY, config.RoutingYX},
		VCPolicies:    []config.VCPolicy{config.VCSplit, config.VCMonopolized},
		WarmupCycles:  500,
		MeasureCycles: 1500,
	}
	for s := uint64(1); s <= 36; s++ {
		spec.Seeds = append(spec.Seeds, s)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if jobs, _, err := spec.Expand(); err != nil || len(jobs) != 432 {
			b.Fatal(len(jobs), err)
		}
	}
}

func TestExpandEmptyDimsInheritBase(t *testing.T) {
	base := config.Default()
	base.NoC.VCsPerPort = 6
	s := Spec{Base: &base, Benchmarks: []string{"KMN"}}
	jobs, _, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 {
		t.Fatalf("want exactly the base design point, got %d jobs", len(jobs))
	}
	if jobs[0].Cfg.NoC.VCsPerPort != 6 {
		t.Errorf("base config not inherited: vcs = %d", jobs[0].Cfg.NoC.VCsPerPort)
	}
}

func TestExpandFilters(t *testing.T) {
	s := smallSpec()
	s.Include = []Filter{{Routings: []config.Routing{config.RoutingYX}}}
	s.Exclude = []Filter{{Benchmarks: []string{"BFS"}, VCPolicies: []config.VCPolicy{config.VCMonopolized}}}
	jobs, _, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Include keeps 8 YX jobs; exclude drops BFS+monopolized (2 seeds).
	if len(jobs) != 6 {
		t.Fatalf("want 6 jobs after filters, got %d", len(jobs))
	}
	for _, j := range jobs {
		if j.Cfg.NoC.Routing != config.RoutingYX {
			t.Errorf("include filter leaked %s", j.Key)
		}
		if j.Benchmark == "BFS" && j.Cfg.NoC.VCPolicy == config.VCMonopolized {
			t.Errorf("exclude filter leaked %s", j.Key)
		}
	}
}

func TestExpandSkipInvalid(t *testing.T) {
	s := Spec{
		Benchmarks: []string{"KMN"},
		Placements: []config.Placement{config.PlacementBottom, config.PlacementDiamond},
		VCPolicies: []config.VCPolicy{config.VCSplit, config.VCMonopolized},
	}
	if _, _, err := s.Expand(); err == nil {
		t.Fatal("diamond+XY+monopolized must fail expansion without SkipInvalid")
	}
	s.SkipInvalid = true
	jobs, skips, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(skips) == 0 {
		t.Fatal("unsafe grid point not reported as a skip")
	}
	for _, j := range jobs {
		if j.Cfg.Placement == config.PlacementDiamond && j.Cfg.NoC.VCPolicy == config.VCMonopolized {
			t.Errorf("unsafe job survived expansion: %s", j.Key)
		}
	}
}

// TestExpandSurfacesVCLimit: a vcs grid value beyond the router's mask width
// fails expansion with config.Validate's reason, or becomes a reasoned skip.
func TestExpandSurfacesVCLimit(t *testing.T) {
	s := Spec{Benchmarks: []string{"KMN"}, VCsPerPort: []int{4, 16}}
	if _, _, err := s.Expand(); err == nil || !strings.Contains(err.Error(), "64-bit request mask") {
		t.Fatalf("vcs=16 expanded with error %v, want the request-mask limit", err)
	}
	s.SkipInvalid = true
	jobs, skips, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || len(skips) != 1 || !strings.Contains(skips[0].Reason, "64-bit request mask") {
		t.Errorf("got %d jobs and skips %+v, want the vcs=4 job and one reasoned skip", len(jobs), skips)
	}
}

func TestExpandRejectsUnknownBenchmark(t *testing.T) {
	s := Spec{Benchmarks: []string{"NOT-A-BENCH"}}
	if _, _, err := s.Expand(); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestParseSpecRejectsUnknownFields(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"benchmerks": ["KMN"]}`)); err == nil {
		t.Fatal("typo'd field accepted")
	}
}

func TestFingerprint(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	a, b := jobs[0], jobs[1]
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not stable")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Error("distinct jobs share a fingerprint")
	}
	// The retired NoC.Workers is read by nothing that simulates: it must not
	// split one simulation over several store keys.
	w4 := a
	w4.Cfg.NoC.Workers = 4
	if w4.Fingerprint() != a.Fingerprint() {
		t.Errorf("workers=4 fingerprint %s differs from workers=%d fingerprint %s",
			w4.Fingerprint(), a.Cfg.NoC.Workers, a.Fingerprint())
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	var want []Record
	for i, j := range jobs[:3] {
		rec := NewRecord(j)
		rec.Status = StatusOK
		if i == 1 {
			rec.Status = StatusFailed
			rec.Error = "boom"
		}
		want = append(want, rec)
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-trip lost records: %d vs %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("record %d mismatch:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}

	// Readers ignore members they do not know: a stored line that carries
	// the "ff_cycles" footprint records used to have still loads, with the
	// identity of the same record without it.
	const line = `{"fingerprint":"f","status":"ok","exec":{"wall_ms":1%s}}` + "\n"
	old, err := ReadRecords(strings.NewReader(fmt.Sprintf(line, `,"ff_cycles":7`) + fmt.Sprintf(line, "")))
	if err != nil {
		t.Fatalf("a record with ff_cycles no longer loads: %v", err)
	}
	if old[0].Exec == nil || old[0].Exec.WallMS != 1 || old[0].Canonical() != old[1].Canonical() {
		t.Errorf("ff_cycles changed the decoded record: %+v vs %+v", old[0], old[1])
	}
}

func TestRunPanicIsolation(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	victim := jobs[5].Key
	run := func(ctx context.Context, j Job) (gpu.Result, error) {
		if j.Key == victim {
			panic("injected fault")
		}
		return okRun(ctx, j)
	}
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	outs, err := Run(context.Background(), jobs, sink, Options{Workers: 4, Run: run})
	if err != nil {
		t.Fatalf("a panicking job crashed the sweep: %v", err)
	}
	s := Summarize(outs)
	if s.OK != len(jobs)-1 || s.Failed != 1 {
		t.Fatalf("want %d ok + 1 failed, got %v", len(jobs)-1, s)
	}
	for _, o := range outs {
		if o.Job.Key == victim {
			if o.Err == nil || !strings.Contains(o.Record.Error, "injected fault") {
				t.Errorf("panic not captured in record: %+v", o.Record)
			}
		}
	}
	recs, err := ReadRecords(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(jobs) {
		t.Errorf("sink got %d records for %d jobs", len(recs), len(jobs))
	}
}

func TestRunCancellationMidSweep(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	run := func(ctx context.Context, j Job) (gpu.Result, error) {
		if calls.Add(1) == 3 {
			cancel() // sweep shuts down while this job is in flight
			<-ctx.Done()
			return gpu.Result{}, ctx.Err()
		}
		return okRun(ctx, j)
	}
	outs, err := Run(ctx, jobs, nil, Options{Workers: 1, Run: run})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if len(outs) >= len(jobs) {
		t.Fatalf("cancellation did not stop dispatch: %d outcomes", len(outs))
	}
	// The in-flight job aborted by shutdown must not be recorded as a
	// failure — a resume should re-run it.
	for _, o := range outs {
		if o.Err != nil {
			t.Errorf("shutdown recorded as job failure: %s: %v", o.Job.Key, o.Err)
		}
	}
}

func TestRunPerJobTimeout(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	jobs = jobs[:2]
	run := func(ctx context.Context, j Job) (gpu.Result, error) {
		if j.Key == jobs[0].Key {
			<-ctx.Done() // hung job: only the per-job timeout frees it
			return gpu.Result{}, ctx.Err()
		}
		return okRun(ctx, j)
	}
	outs, err := Run(context.Background(), jobs, nil,
		Options{Workers: 2, Timeout: 20 * time.Millisecond, Run: run})
	if err != nil {
		t.Fatal(err)
	}
	s := Summarize(outs)
	if s.OK != 1 || s.Failed != 1 {
		t.Fatalf("want timed-out job failed and sibling ok, got %v", s)
	}
}

// TestRunResumeSkipsCompleted: resume is a filter, then Run. The jobs
// whose ok records CompletedFingerprints finds are left out of the job list,
// and the engine runs exactly the rest: here the one job that failed.
func TestRunResumeSkipsCompleted(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	failing := jobs[2].Key

	// Pass 1: everything succeeds except one job.
	sink, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	run1 := func(ctx context.Context, j Job) (gpu.Result, error) {
		if j.Key == failing {
			return gpu.Result{}, errors.New("transient")
		}
		return okRun(ctx, j)
	}
	if _, err := Run(context.Background(), jobs, sink, Options{Workers: 4, Run: run1}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Pass 2: resume must re-run only the failed job.
	done, err := CompletedFingerprints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(jobs)-1 {
		t.Fatalf("completed set = %d, want %d (failed job excluded)", len(done), len(jobs)-1)
	}
	var todo []Job
	for _, j := range jobs {
		if !done[j.Fingerprint()] {
			todo = append(todo, j)
		}
	}
	sink2, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	var reran atomic.Int32
	run2 := func(ctx context.Context, j Job) (gpu.Result, error) {
		reran.Add(1)
		if j.Key != failing {
			t.Errorf("resume re-ran completed job %s", j.Key)
		}
		return okRun(ctx, j)
	}
	outs, err := Run(context.Background(), todo, sink2, Options{Workers: 4, Run: run2})
	if err != nil {
		t.Fatal(err)
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	if got := reran.Load(); got != 1 {
		t.Fatalf("resume executed %d jobs, want 1", got)
	}
	if s := Summarize(outs); s.Total != 1 || s.OK != 1 {
		t.Fatalf("resume summary wrong: %v", s)
	}
	// After the resumed pass every job is complete.
	done, err = CompletedFingerprints(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != len(jobs) {
		t.Fatalf("after resume completed set = %d, want %d", len(done), len(jobs))
	}
}

func TestCompletedFingerprintsMissingFile(t *testing.T) {
	done, err := CompletedFingerprints(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatalf("missing file yields %d fingerprints", len(done))
	}
}

// TestCompletedFingerprintsTornFinalLine: a crash mid-write leaves a
// partial record on the last line. The strict read refuses it; OpenJSONL
// truncates it away, after which the read returns the complete records and
// the next record starts on a clean line. A malformed line anywhere else is
// corruption, which OpenJSONL leaves alone and the read refuses.
func TestCompletedFingerprintsTornFinalLine(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	sink, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:3] {
		rec := NewRecord(j)
		rec.Status = StatusOK
		if err := sink.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the file mid-record, the way a crash during Write does.
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := append(append([]byte{}, full...), []byte(`{"fingerprint":"dead","key":"torn`)...)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := CompletedFingerprints(path); err == nil || !strings.HasPrefix(err.Error(), "sweep: results line 4: ") {
		t.Fatalf("the strict read of a torn file returned %v, want an error naming line 4", err)
	}

	// OpenJSONL repairs; then the read sees the three complete records and
	// an appended record lands on its own line.
	sink2, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	done, err := CompletedFingerprints(path)
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if len(done) != 3 {
		t.Fatalf("completed set = %d, want 3 (torn line dropped)", len(done))
	}
	rec := NewRecord(jobs[3])
	rec.Status = StatusOK
	if err := sink2.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := sink2.Close(); err != nil {
		t.Fatal(err)
	}
	if done, err = CompletedFingerprints(path); err != nil || len(done) != 4 {
		t.Fatalf("%d records after repair+append, want 4 (%v)", len(done), err)
	}

	// Mid-file corruption survives OpenJSONL and fails the read.
	bad := append(append([]byte(`{"broken`), '\n'), full...)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	sink3, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink3.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := CompletedFingerprints(path); err == nil || !strings.HasPrefix(err.Error(), "sweep: results line 1: ") {
		t.Fatalf("mid-file corruption read as %v, want an error naming line 1", err)
	}
}

// TestOrderedSink: the engine with a RunFunc that completes the jobs in
// reverse order, every job running at once, still hands the sink the
// records in job order, and none before job 0 has finished.
func TestOrderedSink(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	index := map[string]int{}
	returned := make([]chan struct{}, len(jobs))
	for i, j := range jobs {
		index[j.Key] = i
		returned[i] = make(chan struct{})
	}
	var sink Memory
	run := func(ctx context.Context, j Job) (gpu.Result, error) {
		i := index[j.Key]
		defer close(returned[i])
		if i+1 < len(jobs) {
			<-returned[i+1]
		}
		if i == 0 && len(sink.Records()) != 0 {
			t.Errorf("the sink holds %d records before job 0 finished", len(sink.Records()))
		}
		return okRun(ctx, j)
	}
	outs, err := Run(context.Background(), jobs, &sink, Options{Workers: len(jobs), Run: run})
	if err != nil {
		t.Fatal(err)
	}
	recs := sink.Records()
	if len(recs) != len(jobs) || len(outs) != len(jobs) {
		t.Fatalf("%d records and %d outcomes, want %d", len(recs), len(outs), len(jobs))
	}
	for i, rec := range recs {
		if rec.Fingerprint != jobs[i].Fingerprint() || outs[i].Job.Key != jobs[i].Key {
			t.Fatalf("position %d holds record %s and outcome %s, want %s (job order)", i, rec.Key, outs[i].Job.Key, jobs[i].Key)
		}
	}
}

// TestRunOrderedEndToEnd: the engine writes expansion order to a JSONL
// results file no matter how many workers race or how long each job takes.
func TestRunOrderedEndToEnd(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	run := func(ctx context.Context, j Job) (gpu.Result, error) {
		// Later keys sleep less, so completion order is far from job order.
		time.Sleep(time.Duration(len(jobs)-slices.IndexFunc(jobs, func(o Job) bool { return o.Key == j.Key })) * time.Millisecond)
		return okRun(ctx, j)
	}
	var buf bytes.Buffer
	if _, err := Run(context.Background(), jobs, NewJSONL(&buf), Options{Workers: 8, Run: run}); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadRecords(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(jobs) {
		t.Fatalf("%d records, want %d", len(recs), len(jobs))
	}
	for i, rec := range recs {
		if rec.Fingerprint != jobs[i].Fingerprint() {
			t.Fatalf("record %d out of order: %s", i, rec.Key)
		}
	}
}

// TestRunNoWorkerWaitsForEarlierJob: with job 0 held until every other job
// has finished, two workers still run jobs 1..n: the one not holding job 0
// parks each record and takes the next job rather than waiting for job 0.
func TestRunNoWorkerWaitsForEarlierJob(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var finished atomic.Int32
	others := make(chan struct{})
	run := func(ctx context.Context, j Job) (gpu.Result, error) {
		if j.Key != jobs[0].Key {
			if finished.Add(1) == int32(len(jobs)-1) {
				close(others)
			}
			return okRun(ctx, j)
		}
		select {
		case <-others:
		case <-time.After(10 * time.Second):
			t.Errorf("jobs 1..%d did not finish while job 0 was held: %d did", len(jobs)-1, finished.Load())
		}
		return okRun(ctx, j)
	}
	var sink Memory
	if _, err := Run(context.Background(), jobs, &sink, Options{Workers: 2, Run: run}); err != nil {
		t.Fatal(err)
	}
	if recs := sink.Records(); len(recs) != len(jobs) || recs[0].Key != jobs[0].Key {
		t.Fatalf("%d records, the first %v; want %d, job 0 first", len(recs), recs[0].Key, len(jobs))
	}
}

// TestRunCancelledJobKeepsLaterRecords: a record that finished behind a job
// the cancellation cut short is on disk when Run returns, and the cut job
// has no record, so a resume re-runs it.
func TestRunCancelledJobKeepsLaterRecords(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	run := func(ctx context.Context, j Job) (gpu.Result, error) {
		if j.Key == jobs[0].Key {
			<-ctx.Done()
			return gpu.Result{}, ctx.Err()
		}
		return okRun(ctx, j)
	}
	progress := func(ev Event) {
		if ev.Type == EventDone && ev.Index == 1 {
			cancel() // job 1 is parked behind job 0
		}
	}
	path := filepath.Join(t.TempDir(), "out.jsonl")
	sink, err := OpenJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(ctx, jobs, sink, Options{Workers: 2, Run: run, Progress: progress})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	done, err := CompletedFingerprints(path)
	if err != nil {
		t.Fatal(err)
	}
	if !done[jobs[1].Fingerprint()] || done[jobs[0].Fingerprint()] {
		t.Fatalf("after the cancelled run the file holds %v; want job 1 (%s) and not job 0", done, jobs[1].Fingerprint())
	}
}

func TestRunSinkErrorAbortsSweep(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	// Every job but the first runs until the sweep is cancelled: job 0's
	// record is the first the sink sees, and its failure must stop the rest.
	run := func(ctx context.Context, j Job) (gpu.Result, error) {
		if j.Key != jobs[0].Key {
			select {
			case <-ctx.Done():
				return gpu.Result{}, ctx.Err()
			case <-time.After(10 * time.Second):
			}
		}
		return okRun(ctx, j)
	}
	outs, err := Run(context.Background(), jobs, failSink{}, Options{Workers: 2, Run: run})
	if err == nil || !strings.Contains(err.Error(), "sink") {
		t.Fatalf("sink failure not surfaced: %v", err)
	}
	if len(outs) >= len(jobs) {
		t.Errorf("sweep kept running after the sink died: %d outcomes", len(outs))
	}
}

// TestRunWithSinkKeepsNoResults: a sweep with a sink hands back no
// gpu.Result — every record has gone to the sink, so keeping the results
// too would grow the sweep by one per job — and one without keeps every
// completed job's.
func TestRunWithSinkKeepsNoResults(t *testing.T) {
	jobs, _, err := smallSpec().Expand()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	outs, err := Run(context.Background(), jobs, NewJSONL(&buf), Options{Workers: 2, Run: okRun})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Res != nil {
			t.Fatalf("%s: a sweep with a sink kept its result", o.Job.Key)
		}
	}
	if recs, err := ReadRecords(&buf); err != nil || len(recs) != len(jobs) {
		t.Fatalf("the sink holds %d records for %d jobs (%v)", len(recs), len(jobs), err)
	}
	outs, err = Run(context.Background(), jobs, nil, Options{Workers: 2, Run: okRun})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		if o.Res == nil || o.Res.Benchmark != o.Job.Benchmark {
			t.Fatalf("%s: a sweep without a sink lost its result", o.Job.Key)
		}
	}
}

type failSink struct{}

func (failSink) Write(Record) error { return fmt.Errorf("disk full") }

// TestRunDeterministic: the same spec run twice through the real simulator
// produces byte-identical JSONL, in job order both times.
func TestRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations")
	}
	s := Spec{
		Benchmarks:    []string{"KMN"},
		Routings:      []config.Routing{config.RoutingXY, config.RoutingYX},
		Seeds:         []uint64{1, 2},
		WarmupCycles:  200,
		MeasureCycles: 800,
	}
	jobs, _, err := s.Expand()
	if err != nil {
		t.Fatal(err)
	}
	lines := func() []string {
		var buf bytes.Buffer
		if _, err := Run(context.Background(), jobs, NewJSONL(&buf), Options{Workers: 4}); err != nil {
			t.Fatal(err)
		}
		// Compare canonical forms: Exec carries wall time and alloc cost,
		// which legitimately differ run to run (see Record.Canonical).
		recs, err := ReadRecords(&buf)
		if err != nil {
			t.Fatal(err)
		}
		ls := make([]string, 0, len(recs))
		for _, rec := range recs {
			if rec.Exec == nil {
				t.Errorf("record %s has no exec footprint", rec.Fingerprint)
			}
			b, err := json.Marshal(rec.Canonical())
			if err != nil {
				t.Fatal(err)
			}
			ls = append(ls, string(b))
		}
		return ls
	}
	a, b := lines(), lines()
	if len(a) != len(jobs) {
		t.Fatalf("%d lines for %d jobs", len(a), len(jobs))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("run diverged:\n %s\n %s", a[i], b[i])
		}
	}
}

// TestSpecFileExamples keeps the committed example specs loadable and,
// for the main example, at the grid size the README promises.
func TestSpecFileExamples(t *testing.T) {
	for _, tc := range []struct {
		path    string
		minJobs int
		// fingerprints, when set, are the store keys existing stores and
		// result files already hold for this spec; they move only when
		// Config's JSON does, which makes every stored result simulate again.
		fingerprints []string
	}{
		{"../../examples/sweepspec.json", 24, nil},
		{"../../examples/sweepspec_smoke.json", 4, []string{
			"8dfaa0fa39f83041", "34e6e654ad9a7941", "168288bb3d477e85", "67fbab4222aac953"}},
	} {
		if _, err := os.Stat(tc.path); err != nil {
			t.Fatalf("example spec missing: %v", err)
		}
		spec, err := ReadSpec(tc.path)
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		jobs, _, err := spec.Expand()
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if len(jobs) < tc.minJobs {
			t.Errorf("%s expands to %d jobs, want >= %d", tc.path, len(jobs), tc.minJobs)
		}
		for i, want := range tc.fingerprints {
			if got := jobs[i].Fingerprint(); got != want {
				t.Errorf("%s job %d (%s): fingerprint %s, want %s", tc.path, i, jobs[i].Key, got, want)
			}
		}
	}
}

// TestExecAllocBytesIsTotalAlloc: the exec footprint's allocation counter
// (runtime/metrics, no stop-the-world) counts what MemStats.TotalAlloc
// counts, less what the allocator's per-P span caches hold unflushed. The
// runtime counts a small object when its span leaves a P's cache;
// ReadMemStats flushes every cache first and runtime/metrics does not, so a
// read trails by up to one partly used span per size class in use per P.
// That lag is not a share of the job: on one NQU job of 40,500 cycles it
// was 70-270 KB against the 1.5 MB the job allocates. So the test measures
// it, as what a flush adds to the counter right after the job, and requires
// Exec.AllocBytes plus that lag to come within 1% of the TotalAlloc delta,
// the rest being the engine's own bookkeeping around the job. An
// under-count with any other cause fails it. The 1% is of a job that builds
// its simulator, so the job has a shape no other test in the package runs:
// gpu.Run would otherwise Reset a parked simulator, and a recycled job
// allocates less than the bookkeeping's 1%.
func TestExecAllocBytesIsTotalAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation")
	}
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles = 500, 40000
	cfg.NoC.VCDepth = 5
	jobs := []Job{{Key: "NQU", Benchmark: "NQU", Cfg: cfg}}
	counter := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	outs, err := Run(context.Background(), jobs, nil, Options{Workers: 1})
	metrics.Read(counter)
	unflushed := counter[0].Value.Uint64()
	runtime.ReadMemStats(&after)
	metrics.Read(counter)
	lag := float64(counter[0].Value.Uint64() - unflushed)
	if err != nil || len(outs) != 1 || outs[0].Err != nil {
		t.Fatalf("run: %v, %+v", err, outs)
	}
	got, want := float64(outs[0].Record.Exec.AllocBytes), float64(after.TotalAlloc-before.TotalAlloc)
	t.Logf("Exec.AllocBytes %.0f, span-cache lag %.0f, MemStats.TotalAlloc delta %.0f", got, lag, want)
	if want == 0 || got+lag > want || got+lag < 0.99*want {
		t.Errorf("Exec.AllocBytes %.0f + span-cache lag %.0f = %.0f, MemStats.TotalAlloc moved by %.0f; want within 1%% below it",
			got, lag, got+lag, want)
	}
}

// FuzzResume: whatever bytes a results file holds, the resume read —
// OpenJSONL, then CompletedFingerprints — does not panic, leaves the file
// empty or ending in a newline, and either fails naming the first malformed
// line or returns exactly the ok fingerprints of the complete lines.
func FuzzResume(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512<<10 {
			t.Skip("inputs stay below the reader's 1 MB line limit")
		}
		path := filepath.Join(t.TempDir(), "out.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		sink, err := OpenJSONL(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := CompletedFingerprints(path)

		kept, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		complete := data[:bytes.LastIndexByte(data, '\n')+1]
		if !bytes.Equal(kept, complete) {
			t.Fatalf("OpenJSONL left %q of %q, want the complete lines %q", kept, data, complete)
		}

		// The reference: each complete line on its own.
		want, bad := map[string]bool{}, 0
		for n, line := range bytes.Split(complete, []byte("\n")) {
			line = bytes.TrimSpace(line)
			if len(line) == 0 {
				continue
			}
			var rec Record
			if json.Unmarshal(line, &rec) != nil {
				bad = n + 1
				break
			}
			if rec.Status == StatusOK {
				want[rec.Fingerprint] = true
			}
		}
		if bad > 0 {
			if prefix := fmt.Sprintf("sweep: results line %d: ", bad); err == nil || !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("read returned %v, want an error starting %q", err, prefix)
			}
			return
		}
		if err != nil {
			t.Fatalf("read of well-formed lines failed: %v", err)
		}
		if !maps.Equal(got, want) {
			t.Fatalf("read %v, want %v", got, want)
		}
	})
}
