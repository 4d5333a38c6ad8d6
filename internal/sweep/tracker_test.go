package sweep

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"
	"time"

	"gpgpunoc/internal/obs"
)

// trackerServer starts an obs server and returns a GET helper for it.
func trackerServer(t *testing.T) (*obs.Server, func(ep string) string) {
	t.Helper()
	srv, err := obs.NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, func(ep string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + ep)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d %v", ep, resp.StatusCode, err)
		}
		return string(b)
	}
}

// TestTrackerPublishesEngineEvents feeds the tracker the events of a small
// sweep — one job done, one failed, one skipped, one still running — and
// pins the three endpoints a scraper sees.
func TestTrackerPublishesEngineEvents(t *testing.T) {
	srv, get := trackerServer(t)
	tr := NewTracker(srv, 5, 2)
	// Live before the first event.
	if body := get("/metrics"); body == "" {
		t.Fatal("empty /metrics before the first event")
	}
	job := func(key string) Job { return Job{Key: key} }
	for _, ev := range []Event{
		{Type: EventSkip, Job: job("d")},
		{Type: EventStart, Job: job("b")},
		{Type: EventStart, Job: job("a")},
		{Type: EventDone, Job: job("b"), IPC: 1.5, Cycles: 800, Elapsed: 2 * time.Second},
		{Type: EventStart, Job: job("c")},
		{Type: EventFail, Job: job("a"), Err: errors.New("boom"), Elapsed: time.Second},
	} {
		tr.Handle(ev)
	}

	const wantMetrics = `# HELP sweep_jobs Jobs by terminal status.
# TYPE sweep_jobs gauge
sweep_jobs{status="done"} 1
sweep_jobs{status="running"} 1
sweep_jobs{status="failed"} 1
sweep_jobs{status="skipped"} 1
# HELP sweep_jobs_total Jobs in the sweep grid.
# TYPE sweep_jobs_total gauge
sweep_jobs_total 5
# HELP sweep_sim_cycles_total Simulated cycles completed across all jobs.
# TYPE sweep_sim_cycles_total counter
sweep_sim_cycles_total 800
`
	if got := get("/metrics"); got != wantMetrics {
		t.Errorf("/metrics =\n%s\nwant\n%s", got, wantMetrics)
	}

	var prog trackerProgress
	if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
		t.Fatal(err)
	}
	if prog.TotalJobs != 5 || prog.Done != 1 || prog.Running != 1 || prog.Failed != 1 ||
		prog.Skipped != 1 || prog.SimCycles != 800 {
		t.Errorf("/progress counts = %+v", prog)
	}
	// Two jobs left; the two finished ones took 2 s (ok) + 1 s (failed) of
	// job time, a failure's time counting like a success's; two workers:
	// 2 × 1.5 s / 2 = 1.5 s.
	if prog.ETASeconds != 1.5 {
		t.Errorf("/progress eta = %v, want 1.5", prog.ETASeconds)
	}

	const wantState = `{"jobs":[{"key":"a","status":"fail","error":"boom"},` +
		`{"key":"b","status":"ok","ipc":1.5,"seconds":2},` +
		`{"key":"c","status":"running"},{"key":"d","status":"skip"}]}`
	if got := get("/state"); got != wantState {
		t.Errorf("/state = %s\nwant    %s", got, wantState)
	}
}

// TestTrackerRendersOnScrape: /progress is rendered when scraped, not when
// an engine event arrives, so the elapsed time of a sweep between events
// keeps moving.
func TestTrackerRendersOnScrape(t *testing.T) {
	srv, get := trackerServer(t)
	tr := NewTracker(srv, 2, 1)
	tr.Handle(Event{Type: EventStart, Job: Job{Key: "a"}})
	elapsed := func() float64 {
		t.Helper()
		var prog trackerProgress
		if err := json.Unmarshal([]byte(get("/progress")), &prog); err != nil {
			t.Fatal(err)
		}
		return prog.ElapsedSeconds
	}
	first := elapsed()
	time.Sleep(50 * time.Millisecond)
	if second := elapsed(); second-first < 0.05 {
		t.Errorf("elapsed_seconds %v then %v across a 50 ms gap with no event; want it to advance", first, second)
	}
}
