package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"gpgpunoc/internal/obs"
	"gpgpunoc/internal/telemetry"
)

// Printer is a Progress callback that writes one line per finished job —
// live, ordered, and safe for concurrent workers. It reports running
// counts so a long sweep is observable from a terminal or a piped log.
type Printer struct {
	mu    sync.Mutex
	w     io.Writer
	total int
	done  int
	start time.Time
}

// NewPrinter returns a progress printer over total jobs.
func NewPrinter(w io.Writer, total int) *Printer {
	return &Printer{w: w, total: total, start: time.Now()}
}

// Handle consumes one engine event; pass it as Options.Progress.
func (p *Printer) Handle(ev Event) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch ev.Type {
	case EventStart:
		return // start events would double the log volume for little value
	case EventSkip:
		p.done++
		fmt.Fprintf(p.w, "[%*d/%d] skip %s (already in results)\n",
			width(p.total), p.done, p.total, ev.Job.Key)
	case EventDone:
		p.done++
		note := ""
		if ev.Job.Cfg.AllowUnsafe {
			note = " (unsafe)"
		}
		fmt.Fprintf(p.w, "[%*d/%d] ok   %s ipc=%.3f (%.1fs)%s\n",
			width(p.total), p.done, p.total, ev.Job.Key, ev.IPC, ev.Elapsed.Seconds(), note)
	case EventFail:
		p.done++
		fmt.Fprintf(p.w, "[%*d/%d] FAIL %s: %s\n",
			width(p.total), p.done, p.total, ev.Job.Key, firstLine(ev.Err.Error()))
	}
}

// Finish prints the closing summary line.
func (p *Printer) Finish(s Summary) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fmt.Fprintf(p.w, "sweep finished in %.1fs: %s\n", time.Since(p.start).Seconds(), s)
}

func width(total int) int {
	w := 1
	for total >= 10 {
		total /= 10
		w++
	}
	return w
}

func firstLine(s string) string {
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			return s[:i]
		}
	}
	return s
}

// trackerProgress is the /progress payload of a tracked sweep.
type trackerProgress struct {
	TotalJobs      int64   `json:"total_jobs"`
	Done           int64   `json:"done"`
	Running        int64   `json:"running"`
	Failed         int64   `json:"failed"`
	Skipped        int64   `json:"skipped"`
	SimCycles      int64   `json:"sim_cycles"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"`
}

// trackerJob is one job's row in the tracked sweep's /state payload.
type trackerJob struct {
	Key     string  `json:"key"`
	Status  string  `json:"status"` // "running", "ok", "fail", "skip"
	IPC     float64 `json:"ipc,omitempty"`
	Seconds float64 `json:"seconds,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Tracker is a Progress callback that aggregates all workers of a sweep
// behind one obs.Server: job counts live in a telemetry registry rendered
// as /metrics, the job table is /state, and throughput and ETA are
// /progress. Handle only counts; each view is rendered from the counts when
// it is scraped. Like Printer it locks, because the engine fires events
// from any worker goroutine; chain the two with one closure in
// Options.Progress.
type Tracker struct {
	mu      sync.Mutex
	workers int
	start   time.Time

	reg                                   *telemetry.Registry
	total, done, running, failed, skipped *telemetry.Gauge
	simCycles                             *telemetry.Counter

	jobSeconds float64
	jobs       []trackerJob
	index      map[string]int
}

// NewTracker returns a tracker over total jobs running on the given worker
// count and installs its views on srv; they answer from the first scrape.
func NewTracker(srv *obs.Server, total, workers int) *Tracker {
	if workers < 1 {
		workers = 1
	}
	reg := telemetry.NewRegistry()
	status := func(s string) *telemetry.Gauge {
		return reg.Gauge("sweep.jobs."+s, telemetry.Desc{Family: "sweep_jobs",
			Help: "Jobs by terminal status.", Labels: []string{"status", s}})
	}
	t := &Tracker{workers: workers, start: time.Now(), reg: reg, index: map[string]int{},
		total: reg.Gauge("sweep.jobs_total", telemetry.Desc{Family: "sweep_jobs_total",
			Help: "Jobs in the sweep grid."}),
		done: status("done"), running: status("running"), failed: status("failed"), skipped: status("skipped"),
		simCycles: reg.Counter("sweep.sim_cycles", telemetry.Desc{Family: "sweep_sim_cycles_total",
			Help: "Simulated cycles completed across all jobs."}),
	}
	t.total.Set(int64(total))
	srv.Install(t.render)
	return t
}

// Handle consumes one engine event; pass it as (or chain it into)
// Options.Progress.
func (t *Tracker) Handle(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := trackerJob{Key: ev.Job.Key}
	switch ev.Type {
	case EventStart:
		t.running.Inc()
		row.Status = "running"
	case EventDone:
		t.running.Dec()
		t.done.Inc()
		t.simCycles.Add(ev.Cycles)
		t.jobSeconds += ev.Elapsed.Seconds()
		row.Status, row.IPC, row.Seconds = "ok", ev.IPC, ev.Elapsed.Seconds()
	case EventFail:
		t.running.Dec()
		t.failed.Inc()
		t.jobSeconds += ev.Elapsed.Seconds()
		row.Status = "fail"
		if ev.Err != nil {
			row.Error = ev.Err.Error()
		}
	case EventSkip:
		t.skipped.Inc()
		row.Status = "skip"
	}
	if i, ok := t.index[row.Key]; ok {
		t.jobs[i] = row
	} else {
		t.index[row.Key] = len(t.jobs)
		t.jobs = append(t.jobs, row)
	}
}

// render renders one view from the tracker's state, under its lock.
func (t *Tracker) render(_ context.Context, v obs.View) ([]byte, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch v {
	case obs.ViewMetrics:
		return t.reg.RenderPrometheus(), nil
	case obs.ViewState:
		// /state for a sweep is the job table, stable by key.
		jobs := append([]trackerJob(nil), t.jobs...)
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].Key < jobs[j].Key })
		return json.Marshal(struct {
			Jobs []trackerJob `json:"jobs"`
		}{Jobs: jobs})
	}
	elapsed := time.Since(t.start).Seconds()
	prog := trackerProgress{
		TotalJobs: t.total.Value(), Done: t.done.Value(), Running: t.running.Value(),
		Failed: t.failed.Value(), Skipped: t.skipped.Value(),
		SimCycles: t.simCycles.Value(), ElapsedSeconds: elapsed,
	}
	if elapsed > 0 {
		prog.CyclesPerSec = float64(prog.SimCycles) / elapsed
	}
	finished := prog.Done + prog.Failed
	if remaining := prog.TotalJobs - finished - prog.Skipped; remaining > 0 && finished > 0 {
		meanJob := t.jobSeconds / float64(finished)
		prog.ETASeconds = float64(remaining) * meanJob / float64(t.workers)
	}
	return json.Marshal(prog)
}
