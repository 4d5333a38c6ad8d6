package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"gpgpunoc/internal/fabric"
	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/sweep"
)

// fabricRig is an in-process fabric: coordinator, its HTTP server on a
// loopback port, and nproc single-job workers, over a store in a directory.
type fabricRig struct {
	co      *fabric.Coordinator
	srv     *fabric.Server
	base    string
	workers []*fabric.Worker

	cancel context.CancelFunc
	wg     sync.WaitGroup
}

func newFabricRig(storeDir string) (*fabricRig, error) {
	store, err := fabric.OpenStore(storeDir)
	if err != nil {
		return nil, err
	}
	r := &fabricRig{co: fabric.NewCoordinator(store, fabric.Options{})}
	if r.srv, err = fabric.NewServer("127.0.0.1:0", r.co); err != nil {
		return nil, err
	}
	r.base = "http://" + r.srv.Addr()
	for i := 0; i < nproc(); i++ {
		r.workers = append(r.workers, fabric.NewWorker(r.base, fabric.WorkerOptions{Jobs: 1}))
	}
	return r, nil
}

// startWorkers sets the workers leasing. They are started after the submit,
// with jobs already queued: a worker that finds the queue empty sleeps the
// coordinator's 500 ms idle hint, which would put up to half a second of
// phase noise into a ten-second measurement.
func (r *fabricRig) startWorkers() {
	ctx, cancel := context.WithCancel(context.Background())
	r.cancel = cancel
	for _, w := range r.workers {
		r.wg.Add(1)
		go func() {
			defer r.wg.Done()
			_ = w.Run(ctx) // returns ctx's error on cancel, by contract
		}()
	}
}

// close stops the workers, waits for them, and shuts the server.
func (r *fabricRig) close() error {
	if r.cancel != nil {
		r.cancel()
		r.wg.Wait()
	}
	return r.srv.Close()
}

// httpDo does one request on the kept-alive client and returns the body
// (always drained, so the connection is reused).
func httpDo(client *http.Client, method, url string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, strings.TrimSpace(string(data)))
	}
	return data, nil
}

func httpJSON(client *http.Client, method, url string, body []byte, out any) error {
	data, err := httpDo(client, method, url, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func fetchResults(client *http.Client, base, sweepID string) ([]sweep.Record, error) {
	data, err := httpDo(client, http.MethodGet, base+"/sweeps/"+sweepID+"/results", nil)
	if err != nil {
		return nil, err
	}
	return sweep.ReadRecords(bytes.NewReader(data))
}

// fabricPass is the first pass of fabric_short: submit, start the workers,
// poll the sweep's status until done, fetch the results.
type fabricPass struct {
	wallS      float64 // reference-speed
	allocBytes uint64
	sweepID    string
	total      int
	recs       []sweep.Record
}

func (r *fabricRig) firstPass(clk *hostClock, client *http.Client, rawSpec []byte) (fabricPass, error) {
	var pass fabricPass
	var err error
	before := totalAlloc()
	wallMS, _ := clk.timeBusy(func() {
		var sub fabric.SubmitResponse
		if err = httpJSON(client, http.MethodPost, r.base+"/submit", rawSpec, &sub); err != nil {
			return
		}
		pass.sweepID, pass.total = sub.SweepID, sub.Total
		r.startWorkers()
		deadline := time.Now().Add(150 * time.Second)
		for {
			var st fabric.SweepStatus
			if err = httpJSON(client, http.MethodGet, r.base+"/sweeps/"+sub.SweepID, nil, &st); err != nil || st.Finished() {
				return
			}
			if time.Now().After(deadline) {
				err = fmt.Errorf("sweep %s not done after 150 s: %+v", sub.SweepID, st)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
	if err != nil {
		return pass, err
	}
	pass.wallS = wallMS / 1000
	pass.allocBytes = totalAlloc() - before
	pass.recs, err = fetchResults(client, r.base, pass.sweepID)
	return pass, err
}

// resubmit is the client's side of asking again for a sweep the fabric
// already holds: POST the stored spec, see nothing pending, download the
// results. It is done n times - client and server keep both CPUs in play,
// so the loop is timed as a busy operation; latMS are reference-speed, and
// served counts the rounds that came back complete with nothing pending.
func resubmit(clk *hostClock, client *http.Client, base string, rawSpec []byte, n int) (latMS []float64, served int, err error) {
	_, slowdown := clk.timeBusy(func() {
		for i := 0; i < n && err == nil; i++ {
			var sub fabric.SubmitResponse
			var recs []sweep.Record
			start := time.Now()
			if err = httpJSON(client, http.MethodPost, base+"/submit", rawSpec, &sub); err != nil {
				return
			}
			recs, err = fetchResults(client, base, sub.SweepID)
			latMS = append(latMS, ms(time.Since(start)))
			if err == nil && sub.Pending == 0 && sub.Total > 0 && len(recs) == sub.Total {
				served++
			}
		}
	})
	for i := range latMS {
		latMS[i] /= slowdown
	}
	return latMS, served, err
}

const (
	fabricSetupReps = 5
	fullResubmits   = 200
	headJobs        = 12
	headReps        = 3
)

// fabricRun is fabric_short, both sets. Untraced it verifies the head of
// the grid against the single-process engine; traced it runs half the grid,
// then the same jobs through sweep.Run for the overhead and check 1 in
// full, then the fabric's isolated probes.
func fabricRun(p params, rep *report) error {
	dir, cleanup, err := workDir("fabric_short")
	if err != nil {
		return err
	}
	defer cleanup()
	seeds := p.count(fullSeeds, 2)
	if p.trace {
		seeds = max(1, seeds/2)
	}
	spec := sweepSpec(p.seed, seeds)

	// Set-up, part one: the reference the untraced run checks the fabric
	// against - the head of the grid through the single-process engine. It
	// doubles as the warm-up that grows the heap before anything is timed.
	var headCanon []sweep.Record
	var headS []float64
	k := min(seeds, headJobs)
	for i := 0; i < headReps && !p.trace; i++ {
		var jobs []sweep.Job
		loadMS := p.clk.time(func() { _, jobs, err = loadSpec(dir, sweepHead(p.seed, k)) })
		if err != nil {
			return err
		}
		head, err := runSweepPass(p.clk, jobs, filepath.Join(dir, fmt.Sprintf("head%d.jsonl", i)), nil)
		if err != nil {
			return err
		}
		headS = append(headS, loadMS/1000+head.wallS)
		headCanon, _, _ = auditRecords(newReport(""), fingerprints(jobs), head.recs)
	}

	// Part two: the spec bytes, a fresh store, coordinator, server and
	// workers; built several times, the last one kept.
	var rig *fabricRig
	var rawSpec []byte
	var rigS []float64
	storeDir := ""
	for i := 0; i < fabricSetupReps; i++ {
		if rig != nil {
			if err := rig.close(); err != nil {
				return err
			}
		}
		storeDir = filepath.Join(dir, fmt.Sprintf("store%d", i))
		rigS = append(rigS, p.clk.time(func() {
			rawSpec = []byte(mustJSON(spec))
			rig, err = newFabricRig(storeDir)
		})/1000)
		if err != nil {
			return err
		}
	}
	transport := &http.Transport{}
	defer transport.CloseIdleConnections()
	client := &http.Client{Transport: transport, Timeout: 60 * time.Second}

	pass, err := rig.firstPass(p.clk, client, rawSpec)
	if err != nil {
		rig.close()
		return err
	}
	rep.op("submit "+pass.sweepID, nil)
	fps := make([]string, len(pass.recs))
	for i, r := range pass.recs {
		fps[i] = r.Fingerprint
	}
	canon, hexDigest, cycles := auditRecords(rep, fps, pass.recs)
	if len(pass.recs) != pass.total || cycles == 0 {
		rep.op("results", fmt.Errorf("%d records for %d jobs", len(pass.recs), pass.total))
	}

	// Warm: the coordinator knows the spec and every job is done.
	resubmits := p.count(fullResubmits, 10)
	warmMS, warmServed, err := resubmit(p.clk, client, rig.base, rawSpec, resubmits)
	rep.op("warm resubmits", err)

	var scraped map[string]float64
	var idleShare float64
	if p.trace {
		scraped, idleShare, err = rig.scrape(client, pass)
		rep.op("scrape /metrics and timeline", err)
		const pings = 200
		rep.set("fabric.http_rtt_us", p.clk.time(func() {
			for i := 0; i < pings && err == nil; i++ {
				_, err = httpDo(client, http.MethodGet, rig.base+"/healthz", nil)
			}
		})*1000/pings)
		rep.op("GET /healthz", err)
	}
	if err := rig.close(); err != nil {
		return err
	}

	// Cold: a new coordinator over the same store answers the same spec
	// from disk.
	reloadMS := p.clk.time(func() { _, err = fabric.OpenStore(storeDir) })
	if err != nil {
		return err
	}
	cold, err := newFabricRig(storeDir)
	if err != nil {
		return err
	}
	coldMS, coldServed, err := resubmit(p.clk, client, cold.base, rawSpec, 1)
	rep.op("cold resubmit", err)
	if err := cold.close(); err != nil {
		return err
	}
	rep.check("5 resubmits report pending: 0", warmServed == resubmits && coldServed == 1,
		fmt.Sprintf("%d of %d warm and %d of 1 cold resubmits came back complete with nothing pending", warmServed, resubmits, coldServed))

	if p.trace {
		rep.set("fabric.worker_idle_share", idleShare)
		rep.set("fabric.store_reload_ms", reloadMS)
		rep.set("fabric.cold_resubmit_ms", median(coldMS))
		rep.set("fabric.resubmit_ms_p50", median(warmMS))
		return fabricTraced(p, rep, dir, spec, pass, canon, hexDigest, scraped)
	}

	rep.check("1 fabric == sweep (first jobs)", len(headCanon) == k && len(canon) >= k && sameRecords(canon[:min(k, len(canon))], headCanon),
		fmt.Sprintf("the fabric's first %d canonical records differ from sweep.Run's", k))

	rep.set("setup_s", median(headS)+median(rigS))
	rep.set("wall_s", pass.wallS)
	rep.set("sim_cycles_per_s", float64(cycles)/pass.wallS)
	rep.set("jobs_per_s", float64(len(canon))/pass.wallS)
	rep.opLatency(warmMS)
	rep.set("alloc_bytes_per_cycle", float64(pass.allocBytes)/float64(cycles))
	rep.digest = hexDigest
	return nil
}

// scrape reads the coordinator's own counters at the end of the first pass,
// and the share of worker time not spent simulating from the job timeline.
func (r *fabricRig) scrape(client *http.Client, pass fabricPass) (map[string]float64, float64, error) {
	text, err := httpDo(client, http.MethodGet, r.base+"/metrics", nil)
	if err != nil {
		return nil, 0, err
	}
	scraped := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			scraped[name] = v
		}
	}

	var tl fleetobs.Timeline
	if err := httpJSON(client, http.MethodGet, r.base+"/sweeps/"+pass.sweepID+"/timeline", nil, &tl); err != nil {
		return nil, 0, err
	}
	first, last, busyMS := int64(-1), int64(0), int64(0)
	for _, job := range tl.Jobs {
		for _, sp := range job.Spans {
			if sp.Kind != fleetobs.SpanWorker || sp.EndMS < sp.StartMS {
				continue
			}
			busyMS += sp.EndMS - sp.StartMS
			if first < 0 || sp.StartMS < first {
				first = sp.StartMS
			}
			last = max(last, sp.EndMS)
		}
	}
	if last <= first {
		return scraped, 0, fmt.Errorf("timeline has no worker spans")
	}
	// Over the span the workers were leasing, in the coordinator's own
	// clock: the submit's expansion comes before it and is not worker idle.
	return scraped, 1 - float64(busyMS)/float64((last-first)*int64(len(r.workers))), nil
}

func fabricTraced(p params, rep *report, dir string, spec sweep.Spec, pass fabricPass, canon []sweep.Record,
	hexDigest string, scraped map[string]float64) error {

	// The same jobs through the single-process engine.
	_, jobs, err := loadSpec(dir, spec)
	if err != nil {
		return err
	}
	single, err := runSweepPass(p.clk, jobs, filepath.Join(dir, "single.jsonl"), nil)
	if err != nil {
		return err
	}
	singleCanon, _, _ := auditRecords(rep, fingerprints(jobs), single.recs)
	rep.check("1 fabric == sweep", sameRecords(canon, singleCanon),
		"the fabric's canonical records are not byte-identical to sweep.Run's in expansion order")

	rep.set("fabric.overhead_ms_per_job", (pass.wallS-single.wallS)*1000*float64(nproc())/float64(len(jobs)))
	leases := scraped["fleet_leases_granted_total"]
	rep.set("fabric.leases", leases)
	rep.set("fabric.heartbeats", scraped["fleet_heartbeats_total"])
	rep.set("fabric.retries", scraped["fleet_retries_total"])
	rep.set("fabric.store_hits", scraped["fleet_store_hits_total"])
	rep.set("fabric.store_misses", scraped["fleet_store_misses_total"])
	rep.set("fabric.jobs_per_lease", ratio(float64(len(canon)), leases))
	rep.digest = hexDigest
	rep.set("gpu.result_digest", hash48(hexDigest))

	if err := probeStore(p, rep, filepath.Join(dir, "probe-store"), pass.recs); err != nil {
		return err
	}
	return probeLeaseComplete(p, rep, filepath.Join(dir, "probe-lease"), spec, pass.recs)
}

// probeStore times the content-addressed store alone: Put (marshal, write,
// rename) and Get (the in-memory index) per record.
func probeStore(p params, rep *report, dir string, recs []sweep.Record) error {
	store, err := fabric.OpenStore(dir)
	if err != nil {
		return err
	}
	putMS := p.clk.time(func() {
		for i := 0; i < len(recs) && err == nil; i++ {
			err = store.Put(recs[i])
		}
	})
	if err != nil {
		return err
	}
	rep.set("fabric.store_put_us", putMS*1000/float64(len(recs)))

	const rounds = 100
	getMS := p.clk.time(func() {
		for i := 0; i < rounds; i++ {
			for _, r := range recs {
				if _, ok := store.Get(r.Fingerprint); ok {
					keep++
				}
			}
		}
	})
	rep.set("fabric.store_get_us", getMS*1000/float64(rounds*len(recs)))
	return nil
}

// probeLeaseComplete drives the lease state machine directly - no HTTP, no
// simulation: one Lease and one Complete (which files the record in the
// store) per job, with the records the real pass produced.
func probeLeaseComplete(p params, rep *report, dir string, spec sweep.Spec, recs []sweep.Record) error {
	store, err := fabric.OpenStore(dir)
	if err != nil {
		return err
	}
	co := fabric.NewCoordinator(store, fabric.Options{})
	reg, err := co.Register(fabric.RegisterRequest{Name: "probe", Jobs: 1})
	if err != nil {
		return err
	}
	if _, err := co.Submit(spec); err != nil {
		return err
	}
	byFP := make(map[string]sweep.Record, len(recs))
	for _, r := range recs {
		byFP[r.Fingerprint] = r
	}
	pairs := 0
	totalMS := p.clk.time(func() {
		for err == nil {
			var lease fabric.LeaseResponse
			if lease, err = co.Lease(fabric.LeaseRequest{WorkerID: reg.WorkerID, Max: 1}); err != nil || len(lease.Jobs) == 0 {
				return
			}
			rec, ok := byFP[lease.Jobs[0].Fingerprint]
			if !ok {
				err = fmt.Errorf("lease probe: no record for %s", lease.Jobs[0].Fingerprint)
				return
			}
			_, err = co.Complete(fabric.CompleteRequest{WorkerID: reg.WorkerID, LeaseID: lease.LeaseID, Records: []sweep.Record{rec}})
			pairs++
		}
	})
	if err != nil {
		return err
	}
	rep.set("fabric.lease_complete_us", ratio(totalMS*1000, float64(pairs)))
	return nil
}
