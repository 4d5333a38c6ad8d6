// The live views of one simulation run: /metrics, /state and /progress,
// rendered when a scrape asks for them, at a cycle boundary, on the
// goroutine that steps the simulation. (The sweep-wide counterpart is
// sweep.Tracker, next to the engine events it consumes.)
//
// This file is the only place obs reads the wall clock (cycles/sec and
// ETA are real-time quantities); it is allowlisted for the determinism
// analyzer like internal/sweep/progress.go, and nothing here feeds
// simulation state.

package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"sync/atomic"
	"time"

	"gpgpunoc/internal/telemetry"
)

// RunProgress is the /progress payload of a single simulation run.
type RunProgress struct {
	Benchmark      string  `json:"benchmark,omitempty"`
	Phase          string  `json:"phase"` // "warmup", "measure", "done"
	Cycle          int64   `json:"cycle"`
	TotalCycles    int64   `json:"total_cycles"`
	CyclesPerSec   float64 `json:"cycles_per_sec"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	ETASeconds     float64 `json:"eta_seconds"`
}

// RunViews renders the live views of one running simulation. The state
// they read belongs to the stepping goroutine, so Render (the Renderer a
// Server calls, on the request's goroutine) hands each scrape over an
// unbuffered channel to Answer, which the stepping goroutine calls at every
// cycle boundary: the render sees a quiescent kernel, and a cycle nobody
// scrapes costs one non-blocking receive. Finish makes the end-of-run
// render, which every later scrape gets without waiting.
type RunViews struct {
	reg           *telemetry.Registry
	state         func() MeshState
	benchmark     string
	warmup, total int64 // total = warmup + measure cycles
	start         time.Time

	scrapes  chan scrape
	final    atomic.Pointer[[numViews][]byte]
	finished chan struct{} // closed by the first Finish
}

// scrape is one waiting request: the view to render and where to send it.
type scrape struct {
	view  View
	reply chan []byte
}

// NewRunViews returns the live views of a run of benchmark over reg (the
// /metrics registry) and state (the /state snapshot hook), warmup cycles
// then measurement up to total. Elapsed time counts from here.
func NewRunViews(reg *telemetry.Registry, state func() MeshState, benchmark string, warmup, total int64) *RunViews {
	return &RunViews{
		reg: reg, state: state, benchmark: benchmark, warmup: warmup, total: total,
		start:    time.Now(),
		scrapes:  make(chan scrape),
		finished: make(chan struct{}),
	}
}

// Render is the views' Renderer: it waits for the stepping goroutine to
// answer at its next cycle boundary, serves the end-of-run render once the
// run has finished, and gives up when ctx ends — so a scrape of a
// simulator that is not stepping returns when its client stops waiting.
func (r *RunViews) Render(ctx context.Context, v View) ([]byte, error) {
	if final := r.final.Load(); final != nil {
		return final[v], nil
	}
	sc := scrape{view: v, reply: make(chan []byte, 1)}
	select {
	case r.scrapes <- sc:
		return <-sc.reply, nil
	case <-r.finished:
		return r.final.Load()[v], nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Answer renders for at most one waiting scrape. The stepping goroutine
// calls it at every cycle boundary; cycle is the boundary's cycle count.
func (r *RunViews) Answer(cycle int64) {
	select {
	case sc := <-r.scrapes:
		sc.reply <- r.render(sc.view, cycle, false)
	default:
	}
}

// Finish renders every view of the finished run at cycle; from then on
// scrapes are answered with these renders.
func (r *RunViews) Finish(cycle int64) {
	var final [numViews][]byte
	for v := range final {
		final[v] = r.render(View(v), cycle, true)
	}
	if r.final.Swap(&final) == nil {
		close(r.finished)
	}
}

// render renders one view at a cycle boundary.
func (r *RunViews) render(v View, cycle int64, done bool) []byte {
	switch v {
	case ViewMetrics:
		return r.reg.RenderPrometheus()
	case ViewState:
		return mustJSON(r.state())
	}
	elapsed := time.Since(r.start).Seconds()
	prog := RunProgress{
		Benchmark:      r.benchmark,
		Phase:          "measure",
		Cycle:          cycle,
		TotalCycles:    r.total,
		ElapsedSeconds: elapsed,
	}
	switch {
	case done:
		prog.Phase = "done"
	case cycle < r.warmup:
		prog.Phase = "warmup"
	}
	if elapsed > 0 {
		prog.CyclesPerSec = float64(cycle) / elapsed
	}
	if prog.CyclesPerSec > 0 && r.total > cycle {
		prog.ETASeconds = float64(r.total-cycle) / prog.CyclesPerSec
	}
	return mustJSON(prog)
}

// mustJSON marshals a view payload; the payload types always marshal.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("obs: render view: %v", err))
	}
	return b
}
