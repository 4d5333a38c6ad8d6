package gpgpunoc_test

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/experiments"
	"gpgpunoc/internal/fabric"
	"gpgpunoc/internal/gpu"
	"gpgpunoc/internal/sweep"
)

// withWorkers returns the JSON of cfg with its NoC "Workers" key set to
// workers, or removed when workers is 0.
func withWorkers(t *testing.T, cfg config.Config, workers int) []byte {
	t.Helper()
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	noc := doc["NoC"].(map[string]any)
	delete(noc, "Workers")
	if workers != 0 {
		noc["Workers"] = workers
	}
	if data, err = json.Marshal(doc); err != nil {
		t.Fatal(err)
	}
	return data
}

// sameRun requires two uninstrumented runs of one benchmark to be
// bit-identical.
func sameRun(t *testing.T, what string, a, b config.Config, bench string) {
	t.Helper()
	ra, err := gpu.Run(context.Background(), a, bench, gpu.Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	rb, err := gpu.Run(context.Background(), b, bench, gpu.Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	if ra.IPC != rb.IPC || ra.Cycles != rb.Cycles || !reflect.DeepEqual(ra.GPU, rb.GPU) || !reflect.DeepEqual(ra.Net, rb.Net) {
		t.Errorf("%s: the run carrying Workers=4 differs from the one without the key", what)
	}
}

// TestRetiredWorkersKeepsOldInputs: configurations, sweep specs and fabric
// jobs written when NoC.Workers chose the lane-parallel kernel's domain
// count still carry "Workers": 4. Each must decode, simulate bit-identically
// to the same input without the key, share its sweep fingerprint, and share
// its figure-runner memo entry.
func TestRetiredWorkersKeepsOldInputs(t *testing.T) {
	short := config.Default()
	short.WarmupCycles, short.MeasureCycles = 200, 600

	// A configuration file.
	with, err := config.Decode(withWorkers(t, short, 4))
	if err != nil {
		t.Fatalf("config carrying Workers: %v", err)
	}
	without, err := config.Decode(withWorkers(t, short, 0))
	if err != nil {
		t.Fatal(err)
	}
	if with.NoC.Workers != 4 {
		t.Fatalf("decoded Workers %d, want 4", with.NoC.Workers)
	}
	sameRun(t, "config file", with, without, "KMN")

	// A sweep spec whose base carries the key.
	expand := func(workers int) []sweep.Job {
		spec := `{"base": ` + string(withWorkers(t, short, workers)) + `, "benchmarks": ["KMN", "RAY"], "routings": ["xy", "yx"]}`
		s, err := sweep.ParseSpec([]byte(spec))
		if err != nil {
			t.Fatalf("spec with Workers=%d: %v", workers, err)
		}
		jobs, _, err := s.Expand()
		if err != nil {
			t.Fatal(err)
		}
		return jobs
	}
	specWith, specWithout := expand(4), expand(0)
	if len(specWith) != 4 || len(specWithout) != 4 {
		t.Fatalf("specs expanded to %d and %d jobs, want 4 each", len(specWith), len(specWithout))
	}
	for i := range specWith {
		if a, b := specWith[i].Fingerprint(), specWithout[i].Fingerprint(); a != b {
			t.Errorf("spec job %s: fingerprint %s carrying Workers, %s without", specWith[i].Key, a, b)
		}
	}
	sameRun(t, "spec job "+specWith[3].Key, specWith[3].Cfg, specWithout[3].Cfg, specWith[3].Benchmark)

	// A fabric wire job, as a coordinator holding the spec above sends it,
	// decoded strictly and checked the way a worker checks it.
	payload, err := json.Marshal(fabric.ToWire(specWith[0]))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(payload, []byte(`"Workers":4`)) {
		t.Fatalf("wire job does not carry the key: %s", payload)
	}
	dec := json.NewDecoder(bytes.NewReader(payload))
	dec.DisallowUnknownFields()
	var wj fabric.WireJob
	if err := dec.Decode(&wj); err != nil {
		t.Fatalf("wire job carrying Workers: %v", err)
	}
	if got := wj.Job().Fingerprint(); got != wj.Fingerprint || got != specWithout[0].Fingerprint() {
		t.Errorf("wire job fingerprint: worker %s, coordinator %s, without the key %s", got, wj.Fingerprint, specWithout[0].Fingerprint())
	}
	sameRun(t, "wire job", wj.Job().Cfg, specWithout[0].Cfg, wj.Benchmark)

	// The figure runners' memo: a figure whose configurations carry the
	// decoded value is answered from the runs of the same figure without it.
	opts := experiments.Opts{Benchmarks: []string{"KMN"}, WarmupCycles: 200, MeasureCycles: 600, Seed: 0x3a7}
	carrying := opts
	carrying.Overrides = func(c config.Config) config.Config { c.NoC.Workers = with.NoC.Workers; return c }
	sim0, reused0 := experiments.MemoCounts()
	plain, err := experiments.Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	sim1, reused1 := experiments.MemoCounts()
	again, err := experiments.Fig7(carrying)
	if err != nil {
		t.Fatal(err)
	}
	sim2, reused2 := experiments.MemoCounts()
	if sim1-sim0 == 0 || sim2 != sim1 || reused2-reused1 != sim1-sim0 || reused1 != reused0 {
		t.Errorf("Fig7 simulated %d and reused %d, then carrying Workers simulated %d and reused %d; want the second answered from the first",
			sim1-sim0, reused1-reused0, sim2-sim1, reused2-reused1)
	}
	if plain.String() != again.String() {
		t.Errorf("Fig7 carrying Workers renders differently:\n%s\nwithout:\n%s", again, plain)
	}
}
