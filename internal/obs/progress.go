// Progress publication: a per-run Publisher that snapshots telemetry,
// mesh state, and run progress at cycle boundaries. (The sweep-wide
// counterpart is sweep.Tracker, next to the engine events it consumes.)
//
// This file is the only place obs reads the wall clock (cycles/sec and
// ETA are real-time quantities); it is allowlisted for the determinism
// analyzer like internal/sweep/progress.go, and nothing here feeds
// simulation state.

package obs

import (
	"fmt"
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

// Publisher renders and publishes observability snapshots for one running
// simulation. The simulation goroutine owns it: MaybePublish is called at
// the top of each cycle (a cycle boundary), so every published snapshot
// sees a consistent kernel. Publishing is O(registry + mesh) and happens
// once per Every cycles; between publications the simulator pays one nil
// check and one modulo.
type Publisher struct {
	Srv   *Server
	Reg   *telemetry.Registry
	State func() MeshState // cycle-boundary snapshot hook
	Every int64            // publication period in cycles

	Benchmark string
	Warmup    int64
	Total     int64 // warmup + measure cycles

	start     time.Time
	started   bool
	lastCycle int64
	lastTime  time.Time
	lastRate  float64
}

// MaybePublish publishes when cycle lands on the publication period.
func (p *Publisher) MaybePublish(cycle int64) {
	if cycle%p.Every != 0 {
		return
	}
	p.Publish(cycle, false)
}

// Publish renders all three endpoints at the given cycle boundary.
func (p *Publisher) Publish(cycle int64, done bool) {
	now := time.Now()
	if !p.started {
		p.start, p.lastTime, p.started = now, now, true
	}
	if dt := now.Sub(p.lastTime).Seconds(); dt > 0 && cycle > p.lastCycle {
		p.lastRate = float64(cycle-p.lastCycle) / dt
		p.lastCycle, p.lastTime = cycle, now
	}

	p.Srv.SetMetrics(p.Reg.RenderPrometheus())
	if p.State != nil {
		if err := p.Srv.SetStateJSON(p.State()); err != nil {
			panic(fmt.Sprintf("obs: publish state: %v", err)) // the snapshot types always marshal
		}
	}

	prog := RunProgress{
		Benchmark:      p.Benchmark,
		Phase:          p.phase(cycle, done),
		Cycle:          cycle,
		TotalCycles:    p.Total,
		CyclesPerSec:   p.lastRate,
		ElapsedSeconds: now.Sub(p.start).Seconds(),
	}
	if p.lastRate > 0 && p.Total > cycle {
		prog.ETASeconds = float64(p.Total-cycle) / p.lastRate
	}
	if err := p.Srv.SetProgressJSON(prog); err != nil {
		panic(fmt.Sprintf("obs: publish progress: %v", err))
	}
}

func (p *Publisher) phase(cycle int64, done bool) string {
	switch {
	case done:
		return "done"
	case cycle < p.Warmup:
		return "warmup"
	default:
		return "measure"
	}
}
