package sweep

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"

	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/telemetry"
)

// RunFunc executes one job. The default, Simulate, runs the full GPU
// simulation; tests and the CLI's fault-injection mode substitute their
// own.
type RunFunc func(ctx context.Context, j Job) (gpu.Result, error)

// Simulate is the production RunFunc: a full cycle-level GPU simulation of
// the job's benchmark under its configuration.
func Simulate(ctx context.Context, j Job) (gpu.Result, error) {
	return gpu.Run(ctx, j.Cfg, j.Benchmark, gpu.Instrumentation{})
}

// SimulateWith returns a RunFunc like Simulate with the given
// instrumentation (sanitizer, telemetry, span tracing)
// built into every job's simulator. Instrumented results carry their
// telemetry in Result.Tel; pair with Options.TraceDir to persist each
// job's trace.
func SimulateWith(inst gpu.Instrumentation) RunFunc {
	return func(ctx context.Context, j Job) (gpu.Result, error) {
		return gpu.Run(ctx, j.Cfg, j.Benchmark, inst)
	}
}

// Options tune one engine run.
type Options struct {
	// Workers bounds concurrent jobs; 0 means GOMAXPROCS.
	Workers int
	// Timeout aborts a single job after this long; 0 means no limit.
	Timeout time.Duration
	// Progress, when set, receives one event per job transition.
	Progress func(Event)
	// Run substitutes the job executor; nil means Simulate.
	Run RunFunc
	// TraceDir, when non-empty, persists each instrumented job's trace
	// (Result.Tel != nil) in <dir>/<fingerprint>/ (telemetry.WriteTrace).
	// Fingerprint-keyed directories line up with the output JSONL and
	// survive resumes: a job a resumed sweep does not run keeps its
	// existing trace. A write failure aborts the sweep, like a sink failure.
	TraceDir string
}

// EventType distinguishes progress callbacks.
type EventType string

const (
	EventStart EventType = "start"
	EventDone  EventType = "done"
	EventFail  EventType = "fail"
)

// Event is one progress notification.
type Event struct {
	Type    EventType
	Job     Job
	Index   int // position in the job list
	Total   int
	Err     error
	Elapsed time.Duration
	IPC     float64
}

// Outcome is the in-process view of one job's result: the serializable
// record plus, for successful runs of a sweep without a sink, the full
// simulation result so callers like internal/experiments can reach every
// counter without re-running.
type Outcome struct {
	Job    Job
	Record Record
	// Res is the job's simulation result when it ran to completion and Run
	// was given no sink; nil otherwise. A sweep with a sink has written
	// each job's record to it, and keeping the results too would grow it by
	// one Result per job.
	Res *gpu.Result
	Err error // non-nil iff Record.Status == StatusFailed
}

// Summary aggregates a finished (or cancelled) sweep.
type Summary struct {
	Total      int // finished jobs: fewer than Run was given when cancelled
	OK         int
	Failed     int
	Deadlocked int // OK jobs whose configuration protocol-deadlocked
}

// Summarize folds outcomes into a Summary.
func Summarize(outs []Outcome) Summary {
	s := Summary{Total: len(outs)}
	for _, o := range outs {
		if o.Err != nil {
			s.Failed++
			continue
		}
		s.OK++
		if o.Record.Deadlocked {
			s.Deadlocked++
		}
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%d jobs: %d ok (%d deadlocked), %d failed",
		s.Total, s.OK, s.Deadlocked, s.Failed)
}

// Run executes exactly the given jobs on a bounded worker pool. Per job it
// applies the timeout and panic recovery — a crashing configuration becomes
// a StatusFailed record, not a crashed sweep — and hands the records to sink
// (when non-nil) in job order: a job that finishes before an earlier one is
// parked in a reorder buffer until every earlier job is out, and its worker
// goes on to the next job meanwhile. Outcomes are returned in job order,
// without a Res when sink is non-nil.
//
// Cancelling ctx stops dispatching new jobs and cooperatively aborts
// in-flight simulations; Run then writes the records still parked, skipping
// the jobs that never finished, and returns the outcomes gathered so far
// together with ctx's error. A sink write error also aborts the sweep —
// results that cannot be recorded would otherwise be silently lost.
func Run(ctx context.Context, jobs []Job, sink Sink, opts Options) ([]Outcome, error) {
	runFn := opts.Run
	if runFn == nil {
		runFn = Simulate
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	// A sink failure cancels the whole sweep via sinkCtx.
	sinkCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	// The reorder buffer: outs[i] holds job i's outcome, and a zero
	// Record.Status marks a job that has not finished. next is the first
	// position not yet handed to the sink; writing is set while one worker
	// writes, and that worker also writes what the others park meanwhile.
	var (
		mu      sync.Mutex
		outs    = make([]Outcome, len(jobs))
		next    int
		writing bool
		sinkErr error
	)
	finished := func(i int) bool { return outs[i].Record.Status != "" }
	// release writes the finished records from next on, stopping at the
	// first unfinished job unless pastGaps. Callers hold mu; it is dropped
	// around each Write, so no lock is held across the sink.
	release := func(pastGaps bool) {
		if sink == nil || writing {
			return
		}
		writing = true
		for ; sinkErr == nil && next < len(outs) && (pastGaps || finished(next)); next++ {
			if !finished(next) {
				continue
			}
			rec := outs[next].Record
			mu.Unlock()
			err := sink.Write(rec)
			mu.Lock()
			if err != nil {
				sinkErr = err
				cancel(fmt.Errorf("sweep: sink: %w", err))
			}
		}
		writing = false
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			allocBytes := allocCounter()
			for i := range idx {
				j := jobs[i]
				if opts.Progress != nil {
					opts.Progress(Event{Type: EventStart, Job: j, Index: i, Total: len(jobs)})
				}
				jctx := sinkCtx
				var jcancel context.CancelFunc
				if opts.Timeout > 0 {
					jctx, jcancel = context.WithTimeout(sinkCtx, opts.Timeout)
				}
				allocBefore := allocBytes()
				start := time.Now()
				res, err := runShielded(jctx, runFn, j)
				elapsed := time.Since(start)
				if jcancel != nil {
					jcancel()
				}
				// A job cancelled because the sweep itself is shutting
				// down is not a job failure; drop it so a resume re-runs
				// it rather than recording a bogus result.
				if sinkCtx.Err() != nil && err != nil {
					return
				}

				o := Outcome{Job: j, Record: NewRecord(j)}
				ev := Event{Job: j, Index: i, Total: len(jobs), Elapsed: elapsed}
				// The execution footprint is stamped on every record.
				// AllocBytes is the process-wide allocation delta across the
				// job — the job's own at Workers=1 (see allocCounter for how
				// closely), an upper-bound approximation when jobs overlap.
				// Attempt starts at 1; the fabric coordinator overwrites
				// Worker and Attempt with fleet-level attribution when it
				// accepts the record.
				o.Record.Exec = &Exec{
					WallMS:     elapsed.Milliseconds(),
					AllocBytes: int64(allocBytes() - allocBefore),
					Attempt:    1,
				}
				if err != nil {
					o.Record.Status = StatusFailed
					o.Record.Error = err.Error()
					o.Err = err
					ev.Type = EventFail
					ev.Err = err
				} else {
					r := res
					o.Record.Status = StatusOK
					o.Record.Deadlocked = r.Deadlocked
					o.Record.Exec.Cycles = r.Cycles
					m := r.Metrics()
					o.Record.Metrics = &m
					if sink == nil {
						o.Res = &r
					}
					ev.Type = EventDone
					ev.IPC = r.IPC
					if opts.TraceDir != "" && r.Tel != nil {
						if werr := telemetry.WriteTrace(filepath.Join(opts.TraceDir, o.Record.Fingerprint), r.Tel, r.Spans, r.Net.Mesh); werr != nil {
							cancel(fmt.Errorf("sweep: trace: %w", werr))
							return
						}
					}
				}
				mu.Lock()
				outs[i] = o
				release(false)
				mu.Unlock()
				if opts.Progress != nil {
					opts.Progress(ev)
				}
			}
		}()
	}

feed:
	for i := range jobs {
		select {
		case idx <- i:
		case <-sinkCtx.Done():
			break feed
		}
	}
	close(idx)
	wg.Wait()

	// Every worker has stopped: the records parked behind a job that never
	// finished go out now, so nothing recorded is lost.
	mu.Lock()
	release(true)
	mu.Unlock()
	done := outs[:0]
	for i := range outs {
		if finished(i) {
			done = append(done, outs[i])
		}
	}
	return done, context.Cause(sinkCtx)
}

// allocCounter returns a reader of the process's cumulative heap allocation
// (the quantity MemStats.TotalAlloc reports), which the engine differences
// around each job for the Exec footprint. It reads runtime/metrics rather
// than ReadMemStats: that stops the world, twice per job, and so stalls the
// other workers' simulations. What it gives up is the flush of the
// allocator's per-P caches that ReadMemStats does: a read trails by up to
// one partly used span per size class per P, 70-270 KB on a 1.5 MB job.
// Each worker holds its own reader — the sample slice is the reader's
// scratch — so a read allocates nothing.
func allocCounter() func() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	return func() uint64 {
		metrics.Read(sample)
		return sample[0].Value.Uint64()
	}
}

// runShielded invokes fn with panic recovery: a panicking job reports as a
// failed job carrying its stack trace instead of crashing the sweep.
func runShielded(ctx context.Context, fn RunFunc, j Job) (res gpu.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return fn(ctx, j)
}
