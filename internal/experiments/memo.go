package experiments

import (
	"sync"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/gpu"
)

// memoKey identifies one simulation exactly: the benchmark and the whole
// configuration, compared field by field. It is deliberately not
// sweep.Job.Fingerprint, which folds NoC.Workers to its default so that a
// record means the same at any worker count: keyed by that, a figure
// regenerated at Workers=4 to check it against the serial kernel would be
// answered from the serial run and compared with itself.
type memoKey struct {
	bench string
	cfg   config.Config
}

// memoCap bounds the table. `experiments -run all` over all 25 benchmarks
// asks for 500 distinct (benchmark, configuration) pairs — 16 per benchmark
// across Figs. 2-10 and the division study, 4 more in Scaling — at roughly
// 20 KB a result; a process that walks more pays one re-simulation per
// evicted result, never a wrong answer.
const memoCap = 512

// memo is the process-wide result table under every figure runner: one
// gpu.Result per key, evicted in insertion order at the cap. The paper
// reports Figs. 2, 3, 7, 8, 9 and the network-division study against one
// Table 2 baseline, so the runners ask for the identical deterministic run
// once per figure that mentions it.
var memo = struct {
	sync.Mutex
	byKey             map[memoKey]gpu.Result
	order             []memoKey
	simulated, reused int64
}{byKey: map[memoKey]gpu.Result{}}

// MemoCounts returns how many simulations the figure runners have dispatched
// and how many requested results they took from a run already finished,
// cumulative since process start.
func MemoCounts() (simulated, reused int64) {
	memo.Lock()
	defer memo.Unlock()
	return memo.simulated, memo.reused
}

// runAll returns every job's result keyed by job key, simulating only what
// no finished run of this process already answers: a job whose (benchmark,
// configuration) is in the memo takes the stored result, jobs of one batch
// that share a key are simulated once, and the rest go to the sweep engine.
// Each run that completes is stored — a protocol-deadlocked run is a
// deterministic result and counts; a failed one is not stored and fails
// again. Results are shared between callers and must be treated as
// read-only: Result.Net is a pointer and every renderer only reads it.
func runAll(jobs []job, workers int) (map[string]gpu.Result, error) {
	results := make(map[string]gpu.Result, len(jobs))
	var misses []job
	// sharers lists, per dispatched simulation, every job key waiting on it.
	sharers := map[memoKey][]string{}

	memo.Lock()
	for _, j := range jobs {
		k := memoKey{j.bench, j.cfg}
		if res, ok := memo.byKey[k]; ok {
			results[j.key] = res
			memo.reused++
			continue
		}
		if _, dispatched := sharers[k]; dispatched {
			memo.reused++
		} else {
			misses = append(misses, j)
			memo.simulated++
		}
		sharers[k] = append(sharers[k], j.key)
	}
	memo.Unlock()
	if len(misses) == 0 {
		return results, nil
	}

	ran, err := simulate(misses, workers, nil)

	memo.Lock()
	defer memo.Unlock()
	for _, j := range misses {
		res, ok := ran[j.key]
		if !ok {
			continue
		}
		k := memoKey{j.bench, j.cfg}
		for _, key := range sharers[k] {
			results[key] = res
		}
		// A concurrent caller that missed the same key may have stored it
		// first; the runs are identical, so either copy serves.
		if _, stored := memo.byKey[k]; stored {
			continue
		}
		if len(memo.order) == memoCap {
			delete(memo.byKey, memo.order[0])
			memo.order = append(memo.order[:0], memo.order[1:]...)
		}
		memo.byKey[k] = res
		memo.order = append(memo.order, k)
	}
	return results, err
}
