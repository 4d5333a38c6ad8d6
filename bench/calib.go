package main

import (
	"time"

	"gpgpunoc/internal/rng"
)

// Host-speed normalisation.
//
// On a shared 2-vCPU box the same binary runs up to 25% faster or slower
// from one minute to the next, depending on what the host's other tenants
// do to the physical cores under it; ten runs of an untouched commit spread
// 10-20%, wider than any bound worth gating on. Medians and longer runs do
// not help: the whole process is slow or fast together.
//
// So every host time the benchmark reports is divided by the host's
// slowdown while it was taken. The slowdown is measured by a fixed
// calibration kernel - a dependent-load walk over a 0.75 MB table with a
// data-dependent branch and a store per step, which like the simulator is
// bound by the core and its private caches, not by memory.
//
//   - An operation that runs on one thread (a RunContext, a gpu.New, an
//     Expand, a probe loop) is bracketed: the kernel runs ~20 ms just before
//     and just after it, and the operation's time is divided by the mean of
//     the two samples. Over 43 windows of 40 noc_bound runs on the reference
//     box, raw run-time sums spread 7.0% (range 46%); bracketed, 2.1% (6%).
//   - An operation that keeps every CPU busy for seconds (a sweep.Run, the
//     fabric's first pass, a figure) cannot be bracketed - a sample sees one
//     CPU for 20 ms, the operation sees all of them for seconds, and
//     bracketing doubled the spread of a quiet box. Instead a sampler
//     goroutine runs a ~4 ms walk every 50 ms while the operation runs (7%
//     of one CPU, the same on every commit), and the operation's time is
//     divided by the median of those samples.
//
// The kernel lives here, not in the simulator, so no change under test can
// move it; the slowdown each run saw is printed with its result. What this
// does not do: it does not make numbers comparable across machines (only a
// constant factor away), and a kernel bound by memory bandwidth would not
// track (a 12 MB variant correlated 0.3 with run time where this one
// correlates 0.9).

const (
	calibEntries = 1 << 16
	calibSteps   = 2_000_000

	// calibReferenceMS is what calibSteps steps take on the reference box
	// (2 vCPUs of a 2.1 GHz Xeon) in its usual state, so a slowdown of 1.0
	// means "as the baseline numbers in README.md were taken".
	calibReferenceMS = 21.7

	// calibFresh is how long a sample stands in for "now": back-to-back
	// operations share the sample between them instead of taking two.
	calibFresh = 2 * time.Millisecond

	// The sampler of busy operations: a shorter walk (it competes with the
	// operation for a CPU), its own reference (it starts cache-cold every
	// time), and how often it runs.
	busySteps       = 400_000
	busyReferenceMS = 4.9
	busyEvery       = 50 * time.Millisecond
	busyFewest      = 5 // below this many samples, bracket instead
)

// calibTable is the kernel's state.
type calibTable struct {
	next []uint32
	data []uint64
}

func newCalibTable() *calibTable {
	t := &calibTable{next: make([]uint32, calibEntries), data: make([]uint64, calibEntries)}
	perm := make([]int, calibEntries)
	r := rng.New(0x5eed)
	r.Perm(perm)
	for i, p := range perm {
		t.next[p] = uint32(perm[(i+1)%calibEntries]) // one cycle through every entry
		t.data[i] = r.Uint64()
	}
	return t
}

// walk runs the kernel for steps steps and returns its wall time in
// milliseconds.
func (t *calibTable) walk(steps int) float64 {
	start := time.Now()
	i, acc := uint32(0), uint64(0)
	for s := 0; s < steps; s++ {
		i = t.next[i]
		v := t.data[i]
		if v&1 == 0 {
			acc += v * 0x9e3779b97f4a7c15
		} else {
			acc ^= v >> 7
		}
		t.data[i] = v + acc
	}
	t.data[0] ^= acc // keeps the loop's result live
	return ms(time.Since(start))
}

// hostClock times operations in reference-speed milliseconds.
type hostClock struct {
	table *calibTable

	last    float64 // most recent bracketing sample
	lastAt  time.Time
	samples []float64 // every slowdown an operation was divided by
}

func newHostClock() *hostClock {
	h := &hostClock{table: newCalibTable()}
	h.table.walk(calibSteps) // the first touch of the table is not a sample
	return h
}

// slowdown is the host's slowdown against the reference now: one run of the
// calibration kernel. A sample taken within calibFresh is reused, so
// back-to-back operations share the one between them.
func (h *hostClock) slowdown() float64 {
	if h.lastAt.IsZero() || time.Since(h.lastAt) >= calibFresh {
		h.last = h.table.walk(calibSteps) / calibReferenceMS
		h.lastAt = time.Now()
	}
	return h.last
}

// timeOp runs f, an operation on one thread, and returns its duration in
// reference-speed milliseconds - wall time over the mean slowdown sampled
// just before and just after - and that slowdown.
func (h *hostClock) timeOp(f func()) (refMS, slowdown float64) {
	before := h.slowdown()
	start := time.Now()
	f()
	raw := ms(time.Since(start))
	slowdown = (before + h.slowdown()) / 2
	h.samples = append(h.samples, slowdown)
	return raw / slowdown, slowdown
}

func (h *hostClock) time(f func()) float64 {
	refMS, _ := h.timeOp(f)
	return refMS
}

// timeBusy is timeOp for an operation that keeps every CPU busy: the
// slowdown is the median of walks taken by a sampler goroutine while f
// runs. An operation too short to be sampled is bracketed instead.
func (h *hostClock) timeBusy(f func()) (refMS, slowdown float64) {
	stop := make(chan struct{})
	walks := make(chan []float64)
	go func() {
		var taken []float64
		tick := time.NewTicker(busyEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				walks <- taken
				return
			case <-tick.C:
				taken = append(taken, h.table.walk(busySteps))
			}
		}
	}()
	start := time.Now()
	f()
	raw := ms(time.Since(start))
	close(stop)
	taken := <-walks
	if len(taken) < busyFewest {
		slowdown = h.slowdown()
	} else {
		slowdown = median(taken) / busyReferenceMS
	}
	h.samples = append(h.samples, slowdown)
	return raw / slowdown, slowdown
}

// note describes the slowdowns this run saw.
func (h *hostClock) note(rep *report) {
	if len(h.samples) == 0 {
		return
	}
	rep.notef("host slowdown vs reference: median %.3f (min %.3f, max %.3f over %d timed operations); host times are divided by it",
		median(h.samples), percentile(h.samples, 1), percentile(h.samples, 100), len(h.samples))
}
