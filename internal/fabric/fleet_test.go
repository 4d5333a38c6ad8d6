// Fleet-observability tests: metric/timeline rendering under concurrent
// scraping (run with -race in CI), views rendered at the scrape, and
// worker/attempt attribution on result records.

package fabric

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
)

// scrape GETs a URL and returns its body ("" on any error — scrapers run
// concurrently with teardown, so failures are expected noise).
func scrape(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return string(b)
}

// metricValue extracts the (last) value of a Prometheus sample by name
// prefix, -1 when absent.
func metricValue(exposition, name string) float64 {
	val := -1.0
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, "#") || !strings.HasPrefix(line, name) {
			continue
		}
		rest := line[len(name):]
		// Either "name value" or "name{labels} value"; reject longer names.
		if !strings.HasPrefix(rest, " ") && !strings.HasPrefix(rest, "{") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		fmt.Sscanf(fields[len(fields)-1], "%g", &val)
	}
	return val
}

// TestFleetMetricsTimelineRace drives a sweep on a fleet where one worker
// goes silent mid-lease (registered, leased, never heartbeats — the
// in-process stand-in for a SIGKILLed process) while scrapers hammer
// /metrics and /sweeps/{id}/timeline concurrently. The sweep must still
// finish, the expiry must show up in the metrics, and the ghost's job
// timeline must read: lease to ghost -> expired -> re-queued -> completed
// elsewhere.
func TestFleetMetricsTimelineRace(t *testing.T) {
	co, srv := newTestFabric(t, Options{
		LeaseTTL:  250 * time.Millisecond,
		LeaseJobs: 1,
	})
	base := "http://" + srv.Addr()

	sub, err := co.Submit(specSeeds(1, 2))
	if err != nil {
		t.Fatal(err)
	}

	// The ghost takes one job before any live worker exists, then vanishes.
	ghost, err := co.Register(RegisterRequest{Name: "ghost"})
	if err != nil {
		t.Fatal(err)
	}
	gl, err := co.Lease(LeaseRequest{WorkerID: ghost.WorkerID, Max: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(gl.Jobs) != 1 {
		t.Fatalf("ghost lease: got %d jobs, want 1", len(gl.Jobs))
	}
	ghostFP := gl.Jobs[0].Fingerprint

	// Concurrent scrapers: the point of the test under -race is that
	// exposition rendering and timeline assembly race against every
	// coordinator transition.
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, path := range []string{
		"/metrics",
		"/sweeps/" + sub.SweepID + "/timeline",
		"/sweeps/" + sub.SweepID + "/timeline?format=chrome",
	} {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					scrape(url)
				}
			}
		}(base + path)
	}

	var stops []func()
	for i := 0; i < 2; i++ {
		w := NewWorker(base, WorkerOptions{
			Name: fmt.Sprintf("live%d", i), Run: instantRun, Poll: 10 * time.Millisecond,
		})
		stops = append(stops, startWorker(context.Background(), w))
	}
	waitFinished(t, co, sub.SweepID, time.Minute)
	for _, stop := range stops {
		stop()
	}
	close(done)
	wg.Wait()

	exp := scrape(base + "/metrics")
	if v := metricValue(exp, "fleet_leases_expired_total"); v < 1 {
		t.Fatalf("fleet_leases_expired_total = %g, want >= 1\n%s", v, exp)
	}
	if v := metricValue(exp, "fleet_jobs_done_total"); v < 4 {
		t.Fatalf("fleet_jobs_done_total = %g, want >= 4", v)
	}
	if v := metricValue(exp, "fleet_worker_lease_grants"); v < 0 {
		t.Fatalf("per-worker gauges missing from exposition:\n%s", exp)
	}

	tl, err := co.Timeline(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	var ghostJob *fleetobs.JobTimeline
	for _, jt := range tl.Jobs {
		if jt.Fingerprint == ghostFP {
			ghostJob = jt
		}
	}
	if ghostJob == nil {
		t.Fatalf("ghost job %s missing from timeline", ghostFP)
	}
	var sawGhostLease, sawExpired, sawRequeue, sawDone bool
	for _, sp := range ghostJob.Spans {
		switch {
		case sp.Kind == fleetobs.SpanLease && sp.Worker == ghost.WorkerID:
			sawGhostLease = true
		case sp.Kind == fleetobs.SpanExpired:
			sawExpired = true
		case sp.Kind == fleetobs.SpanQueued && sawExpired:
			sawRequeue = true
		case sp.Kind == fleetobs.SpanDone && sp.Worker != ghost.WorkerID:
			sawDone = true
		}
	}
	if !sawGhostLease || !sawExpired || !sawRequeue || !sawDone {
		t.Fatalf("ghost timeline incomplete (lease=%v expired=%v requeue=%v done=%v): %+v",
			sawGhostLease, sawExpired, sawRequeue, sawDone, ghostJob.Spans)
	}
}

// TestFleetViewsRenderOnScrape: /metrics and /progress are rendered when
// they are scraped, not when the coordinator last changed state, so every
// renewal counts at once and the wall-clock values age between scrapes.
func TestFleetViewsRenderOnScrape(t *testing.T) {
	co, srv := newTestFabric(t, Options{LeaseTTL: time.Minute, LeaseJobs: 1})
	base := "http://" + srv.Addr()
	if _, err := co.Submit(specSeeds(1)); err != nil {
		t.Fatal(err)
	}
	reg, err := co.Register(RegisterRequest{Name: "beater"})
	if err != nil {
		t.Fatal(err)
	}
	l, err := co.Lease(LeaseRequest{WorkerID: reg.WorkerID})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		hb, err := co.Heartbeat(HeartbeatRequest{WorkerID: reg.WorkerID, LeaseID: l.LeaseID})
		if err != nil || !hb.OK {
			t.Fatalf("heartbeat %d: ok=%v err=%v", i+1, hb.OK, err)
		}
	}
	if v := metricValue(scrape(base+"/metrics"), "fleet_heartbeats_total"); v != 2 {
		t.Errorf("fleet_heartbeats_total = %g after two heartbeats, want 2", v)
	}

	time.Sleep(50 * time.Millisecond)
	if v := metricValue(scrape(base+"/metrics"), "fleet_worker_heartbeat_age_ms"); v < 50 {
		t.Errorf("fleet_worker_heartbeat_age_ms = %g 50ms after the last heartbeat, want >= 50", v)
	}
	body := scrape(base + "/progress")
	var p Progress
	if err := json.Unmarshal([]byte(body), &p); err != nil {
		t.Fatalf("/progress: %v: %q", err, body)
	}
	if p.ElapsedSeconds < 0.05 || p.Leased != 1 || p.Pending != 1 {
		t.Errorf("/progress 50ms after leasing one job of two: %+v", p)
	}
}

// TestResultAttribution asserts fleet-level attribution on stored records:
// a job that fails its first attempt and succeeds on retry must carry the
// succeeding worker's identity and attempt number 2 in its Exec footprint.
func TestResultAttribution(t *testing.T) {
	var mu sync.Mutex
	failedOnce := map[string]bool{}
	failFirst := func(ctx context.Context, j sweep.Job) (gpu.Result, error) {
		fp := j.Fingerprint()
		mu.Lock()
		first := !failedOnce[fp]
		failedOnce[fp] = true
		mu.Unlock()
		if first {
			return gpu.Result{}, fmt.Errorf("injected first-attempt failure")
		}
		return instantRun(ctx, j)
	}

	co, srv := newTestFabric(t, Options{LeaseJobs: 1, LeaseTTL: time.Minute})
	sub, err := co.Submit(specSeeds(1))
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorker("http://"+srv.Addr(), WorkerOptions{
		Name: "retrier", Run: failFirst, Poll: 5 * time.Millisecond,
	})
	stop := startWorker(context.Background(), w)
	waitFinished(t, co, sub.SweepID, time.Minute)
	stop()

	recs, finished, err := co.Results(sub.SweepID)
	if err != nil {
		t.Fatal(err)
	}
	if !finished || len(recs) == 0 {
		t.Fatalf("finished=%v records=%d", finished, len(recs))
	}
	for _, rec := range recs {
		if rec.Exec == nil {
			t.Fatalf("record %s has no Exec footprint", rec.Fingerprint)
		}
		if rec.Exec.Worker != "w1" {
			t.Fatalf("record %s: Exec.Worker = %q, want w1", rec.Fingerprint, rec.Exec.Worker)
		}
		if rec.Exec.Attempt != 2 {
			t.Fatalf("record %s: Exec.Attempt = %d, want 2", rec.Fingerprint, rec.Exec.Attempt)
		}
	}
}
