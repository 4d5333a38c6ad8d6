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
	// Done holds fingerprints to skip — typically
	// CompletedFingerprints(outputPath) for a resumed sweep.
	Done map[string]bool
	// Progress, when set, receives one event per job transition.
	Progress func(Event)
	// Run substitutes the job executor; nil means Simulate.
	Run RunFunc
	// TraceDir, when non-empty, persists each instrumented job's trace
	// (Result.Tel != nil) in <dir>/<fingerprint>/ (telemetry.WriteTrace).
	// Fingerprint-keyed directories line up with the output JSONL and
	// survive resumes: a skipped job keeps its existing trace. A write
	// failure aborts the sweep, like a sink failure.
	TraceDir string
}

// EventType distinguishes progress callbacks.
type EventType string

const (
	EventStart EventType = "start"
	EventDone  EventType = "done"
	EventFail  EventType = "fail"
	EventSkip  EventType = "skip"
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
	Res     *gpu.Result
	Err     error // non-nil iff Record.Status == StatusFailed
	Skipped bool  // true when resume skipped the job
}

// Summary aggregates a finished (or cancelled) sweep.
type Summary struct {
	Total      int // jobs handed to Run
	OK         int
	Failed     int
	Skipped    int // resume skips
	Deadlocked int // OK jobs whose configuration protocol-deadlocked
}

// Summarize folds outcomes into a Summary. Total counts processed jobs, so
// on cancellation it is less than the job-list length.
func Summarize(outs []Outcome) Summary {
	s := Summary{Total: len(outs)}
	for _, o := range outs {
		switch {
		case o.Skipped:
			s.Skipped++
		case o.Err != nil:
			s.Failed++
		default:
			s.OK++
			if o.Record.Deadlocked {
				s.Deadlocked++
			}
		}
	}
	return s
}

func (s Summary) String() string {
	return fmt.Sprintf("%d jobs: %d ok (%d deadlocked), %d failed, %d skipped",
		s.Total, s.OK, s.Deadlocked, s.Failed, s.Skipped)
}

// Run executes the jobs on a bounded worker pool. Per job it applies the
// resume skip-set, the timeout, and panic recovery — a crashing
// configuration becomes a StatusFailed record, not a crashed sweep — and
// streams the record to sink (when non-nil) the moment the job finishes.
// Outcomes are returned in completion order, without a Res when sink is
// non-nil.
//
// Cancelling ctx stops dispatching new jobs and cooperatively aborts
// in-flight simulations; Run then returns the outcomes gathered so far
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

	var (
		mu   sync.Mutex
		outs []Outcome
	)
	emit := func(o Outcome, ev Event) {
		mu.Lock()
		outs = append(outs, o)
		mu.Unlock()
		if opts.Progress != nil {
			opts.Progress(ev)
		}
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
				rec := newRecord(j)
				if opts.Done[rec.Fingerprint] {
					rec.Status = StatusOK
					emit(Outcome{Job: j, Record: rec, Skipped: true},
						Event{Type: EventSkip, Job: j, Index: i, Total: len(jobs)})
					continue
				}
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

				o := Outcome{Job: j, Record: rec}
				ev := Event{Job: j, Index: i, Total: len(jobs), Elapsed: elapsed}
				// The execution footprint is stamped on ran jobs (ok and
				// failed, never skips). AllocBytes is the process-wide
				// allocation delta across the job — the job's own at Workers=1
				// (see allocCounter for how closely), an upper-bound
				// approximation when jobs overlap. Attempt
				// starts at 1; the fabric coordinator overwrites Worker and
				// Attempt with fleet-level attribution when it accepts the
				// record.
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
						if werr := telemetry.WriteTrace(filepath.Join(opts.TraceDir, rec.Fingerprint), r.Tel, r.Spans, r.Net.Mesh); werr != nil {
							cancel(fmt.Errorf("sweep: trace: %w", werr))
							return
						}
					}
				}
				if sink != nil {
					if werr := sink.Write(o.Record); werr != nil {
						cancel(fmt.Errorf("sweep: sink: %w", werr))
						return
					}
				}
				emit(o, ev)
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

	if err := context.Cause(sinkCtx); err != nil {
		return outs, err
	}
	return outs, nil
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
