package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
)

// memoOpts is a two-benchmark figure at a thousand cycles: enough for
// distinct, non-degenerate IPCs, cheap enough to regenerate many times.
func memoOpts() Opts {
	return Opts{Benchmarks: []string{"KMN", "RAY"}, WarmupCycles: 200, MeasureCycles: 800}
}

// counts runs f and returns how many simulations it dispatched and how many
// results it reused.
func counts(f func()) (simulated, reused int64) {
	s0, r0 := MemoCounts()
	f()
	s1, r1 := MemoCounts()
	return s1 - s0, r1 - r0
}

// tinyJob is the cheapest distinct simulation: the Table 2 system for 50
// cycles, told apart by seed alone.
func tinyJob(seed uint64) job {
	cfg := config.Default()
	cfg.WarmupCycles, cfg.MeasureCycles, cfg.Seed = 10, 40, seed
	return job{key: fmt.Sprint(seed), bench: "KMN", cfg: cfg}
}

func mustTable(t *testing.T, fig func(Opts) (*Table, error), o Opts) *Table {
	t.Helper()
	tab, err := fig(o)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func mustRun(t *testing.T, jobs ...job) map[string]gpu.Result {
	t.Helper()
	res, err := runAll(jobs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestMemoFig8AfterFig7: Fig. 8 shares its baseline column with Fig. 7, so
// after Fig7 it dispatches three simulations per benchmark, not four, and
// renders the table it renders on an empty memo. A batch that repeats a key
// (Fig. 2 and Fig. 3 are that batch, split in two) simulates it once.
func TestMemoFig8AfterFig7(t *testing.T) {
	ResetMemo()
	o := memoOpts()
	n := int64(len(o.Benchmarks))
	if sim, re := counts(func() { mustTable(t, Fig7, o) }); sim != 3*n || re != 0 {
		t.Fatalf("Fig7 on an empty memo: %d simulated, %d reused; want %d, 0", sim, re, 3*n)
	}
	var after *Table
	if sim, re := counts(func() { after = mustTable(t, Fig8, o) }); sim != 3*n || re != n {
		t.Errorf("Fig8 after Fig7: %d simulated, %d reused; want %d, %d", sim, re, 3*n, n)
	}
	ResetMemo()
	if fresh := mustTable(t, Fig8, o); fresh.String() != after.String() {
		t.Errorf("Fig8 differs with a reused baseline:\nfresh:\n%s\nafter Fig7:\n%s", fresh, after)
	}

	ResetMemo()
	a, b := tinyJob(1), tinyJob(1)
	a.key, b.key = "a", "b"
	var res map[string]gpu.Result
	if sim, re := counts(func() { res = mustRun(t, a, b, tinyJob(2)) }); sim != 2 || re != 1 {
		t.Errorf("batch with a repeated key: %d simulated, %d reused; want 2, 1", sim, re)
	}
	if len(res) != 3 || res["a"].Cycles == 0 || !reflect.DeepEqual(res["a"], res["b"]) {
		t.Errorf("repeated key: %d results, a = %+v, b = %+v", len(res), res["a"], res["b"])
	}
}

// TestMemoStoresOutcomesNotErrors: a job that fails is not stored and fails
// again; a run the watchdog declares deadlocked is a deterministic result,
// stored and returned as deadlocked on the hit.
func TestMemoStoresOutcomesNotErrors(t *testing.T) {
	ResetMemo()
	bad := tinyJob(1)
	bad.bench = "NO-SUCH-BENCHMARK"
	for pass := 1; pass <= 2; pass++ {
		sim, re := counts(func() {
			if _, err := runAll([]job{bad}, 1); err == nil {
				t.Errorf("pass %d: an unknown benchmark ran", pass)
			}
		})
		if sim != 1 || re != 0 {
			t.Errorf("pass %d of a failing job: %d simulated, %d reused; want 1, 0", pass, sim, re)
		}
	}

	// Shared VCs on a mixing placement wedge the full system (internal/gpu's
	// TestSharedVCsDeadlockEndToEnd).
	wedge := tinyJob(1)
	wedge.cfg.Placement = config.PlacementDiamond
	wedge.cfg.NoC.VCPolicy = config.VCShared
	wedge.cfg.Mem.MCRequestQueue = 4
	wedge.cfg.WarmupCycles, wedge.cfg.MeasureCycles = 30000, 6000
	wedge.cfg.AllowUnsafe = true
	first := mustRun(t, wedge)[wedge.key]
	if !first.Deadlocked {
		t.Fatal("the unsafe configuration did not deadlock")
	}
	var hit gpu.Result
	if sim, re := counts(func() { hit = mustRun(t, wedge)[wedge.key] }); sim != 0 || re != 1 {
		t.Errorf("a deadlocked run asked for again: %d simulated, %d reused; want 0, 1", sim, re)
	}
	if !hit.Deadlocked || !reflect.DeepEqual(first, hit) {
		t.Errorf("the hit is not the deadlocked run: %+v", hit)
	}
}

// TestMemoEveryConfigLeafIsPartOfKey changes each leaf of config.Config in
// turn — found by reflection, so a field added later is covered the day it
// is added — and requires a miss: nothing but the retired NoC.Workers may be
// folded out of the key, and that one must hit, so a configuration still
// carrying it shares the run.
// Many of the changed configurations are invalid; a job that fails was still
// dispatched rather than answered, which is all this asks.
func TestMemoEveryConfigLeafIsPartOfKey(t *testing.T) {
	ResetMemo()
	base := tinyJob(1)
	mustRun(t, base)
	if sim, re := counts(func() { mustRun(t, base) }); sim != 0 || re != 1 {
		t.Fatalf("the unchanged job: %d simulated, %d reused; want 0, 1", sim, re)
	}

	cfg := base.cfg
	leaves := 0
	var visit func(path string, v reflect.Value)
	visit = func(path string, v reflect.Value) {
		if v.Kind() == reflect.Struct {
			for i := 0; i < v.NumField(); i++ {
				visit(path+"."+v.Type().Field(i).Name, v.Field(i))
			}
			return
		}
		leaves++
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.String:
			v.SetString(v.String() + "x")
		default:
			t.Fatalf("%s is a %s; teach this test to change one", path, v.Kind())
		}
		changed := base
		changed.cfg = cfg
		sim, re := counts(func() { runAll([]job{changed}, 1) })
		switch {
		case path == "Config.NoC.Workers":
			if sim != 0 || re != 1 {
				t.Errorf("%s changed: %d simulated, %d reused; want 0, 1 — the retired field splits the memo", path, sim, re)
			}
		case sim != 1 || re != 0:
			t.Errorf("%s changed: %d simulated, %d reused; want 1, 0 — the field is not part of the key", path, sim, re)
		}
		v.Set(old)
	}
	visit("Config", reflect.ValueOf(&cfg).Elem())
	if leaves < 34 {
		t.Errorf("walked %d leaves of config.Config; it has 34", leaves)
	}
}

// TestMemoOptsReachTheKey: the scale and seed a caller sets on Opts, and a
// field set through Overrides, each make a figure a miss.
func TestMemoOptsReachTheKey(t *testing.T) {
	ResetMemo()
	base := memoOpts()
	base.Benchmarks = base.Benchmarks[:1]
	mustTable(t, Fig2, base)
	for _, c := range []struct {
		name   string
		change func(*Opts)
	}{
		{"Seed", func(o *Opts) { o.Seed = 7 }},
		{"WarmupCycles", func(o *Opts) { o.WarmupCycles++ }},
		{"MeasureCycles", func(o *Opts) { o.MeasureCycles++ }},
		{"Overrides VCDepth", func(o *Opts) {
			o.Overrides = func(c config.Config) config.Config { c.NoC.VCDepth = 8; return c }
		}},
	} {
		o := base
		c.change(&o)
		if sim, re := counts(func() { mustTable(t, Fig2, o) }); sim != 1 || re != 0 {
			t.Errorf("Fig2 with a different %s: %d simulated, %d reused; want 1, 0", c.name, sim, re)
		}
	}
	if sim, re := counts(func() { mustTable(t, Fig3, base) }); sim != 0 || re != 1 {
		t.Errorf("Fig3 after Fig2 under equal Opts: %d simulated, %d reused; want 0, 1", sim, re)
	}
}

// TestMemoEvictsOldestFirst fills the table one past its cap: the oldest
// result is gone and simulates again to an equal result, the newest is
// still there.
func TestMemoEvictsOldestFirst(t *testing.T) {
	ResetMemo()
	jobs := make([]job, memoCap+1)
	for i := range jobs {
		jobs[i] = tinyJob(uint64(i + 1))
	}
	oldest, newest := jobs[0], jobs[memoCap]
	first := mustRun(t, oldest)[oldest.key]
	if _, err := runAll(jobs[1:], 0); err != nil {
		t.Fatal(err)
	}
	if sim, re := counts(func() { mustRun(t, newest) }); sim != 0 || re != 1 {
		t.Errorf("the newest of %d results: %d simulated, %d reused; want 0, 1", memoCap+1, sim, re)
	}
	var again gpu.Result
	if sim, re := counts(func() { again = mustRun(t, oldest)[oldest.key] }); sim != 1 || re != 0 {
		t.Errorf("the oldest of %d results: %d simulated, %d reused; want 1, 0 (evicted)", memoCap+1, sim, re)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("the evicted run simulated again differs:\nfirst %+v\nagain %+v", first, again)
	}
}

// TestMemoConcurrentFigures runs figures that share runs from several
// goroutines at once (go test -race): each renders the table it renders
// alone.
func TestMemoConcurrentFigures(t *testing.T) {
	o := memoOpts()
	figs := []func(Opts) (*Table, error){Fig2, Fig3, Fig7, Fig8, Fig7, Fig8}
	want := make([]string, len(figs))
	for i, fig := range figs {
		ResetMemo()
		want[i] = mustTable(t, fig, o).String()
	}
	ResetMemo()
	got := make([]string, len(figs))
	var wg sync.WaitGroup
	for i, fig := range figs {
		wg.Add(1)
		go func(i int, fig func(Opts) (*Table, error)) {
			defer wg.Done()
			tab, err := fig(o)
			if err != nil {
				t.Error(err)
				return
			}
			got[i] = tab.String()
		}(i, fig)
	}
	wg.Wait()
	for i := range figs {
		if got[i] != want[i] {
			t.Errorf("figure %d run concurrently:\n%s\nalone:\n%s", i, got[i], want[i])
		}
	}
	if sim, re := MemoCounts(); sim+re != 2*(1+1+3+4+3+4) {
		t.Errorf("%d simulated + %d reused; the six figures ask for %d results", sim, re, 2*(1+1+3+4+3+4))
	}
}

// TestByConfigGroupsJobs: a batch listed benchmark by benchmark goes to the
// engine configuration by configuration, configurations in order of first
// appearance and benchmarks in their given order within each.
func TestByConfigGroupsJobs(t *testing.T) {
	a, b := config.Default(), config.Default()
	b.NoC.Routing = config.RoutingYX
	var jobs []job
	for _, bench := range []string{"KMN", "RAY", "NQU"} {
		jobs = append(jobs, job{key: bench + "/a", bench: bench, cfg: a}, job{key: bench + "/b", bench: bench, cfg: b})
	}
	var got []string
	for _, j := range byConfig(jobs) {
		got = append(got, j.key)
	}
	want := []string{"KMN/a", "RAY/a", "NQU/a", "KMN/b", "RAY/b", "NQU/b"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("byConfig order %v, want %v", got, want)
	}
	if jobs[1].key != "KMN/b" {
		t.Fatalf("byConfig reordered its argument: %v", jobs)
	}
}
