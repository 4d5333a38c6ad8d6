package experiments

import "gpgpunoc/internal/gpu"

// ResetMemo empties the result memo and zeroes its counters, so a test
// counts from a known state.
func ResetMemo() {
	memo.Lock()
	defer memo.Unlock()
	memo.byKey = map[memoKey]gpu.Result{}
	memo.order = nil
	memo.simulated, memo.reused = 0, 0
}
