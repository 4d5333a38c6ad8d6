// Package fleetobs holds two observability models: the simulator's
// bounded, allocation-free flight recorder of recent cycle-domain events,
// and the per-job span timeline the sweep fabric serves at
// /sweeps/{id}/timeline.
//
// The recorder follows the repository's nil-gated observability idiom
// (telemetry probes, noc.Network.SetSpans): an unattached recorder costs
// one predictable nil check per site, and recording into an attached one is
// a plain struct store into a preallocated ring — no allocation, no locks.
// The ring is single-writer: gpu.Simulator's run loop, on the stepping
// goroutine.
package fleetobs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Kind classifies one flight-recorder event.
type Kind uint8

// Event kinds. The A/B/C payload meaning is per-kind (documented here and
// in DESIGN.md §12).
const (
	// KindPhase: run-phase entry. A: 0 = warmup, 1 = measurement.
	KindPhase Kind = iota
	// KindCheckpoint: periodic watchdog/cancellation checkpoint (every 512
	// cycles). A: flits in flight.
	KindCheckpoint
	// KindInvariantOK: a sampled CheckInvariants pass.
	KindInvariantOK
	// KindInvariantFail: CheckInvariants failed; the run aborts after this.
	KindInvariantFail
	// KindWatchdog: the deadlock watchdog tripped. A: flits in flight.
	KindWatchdog
	// KindPanic: a panic unwound through the run loop.
	KindPanic
)

var kindNames = [...]string{
	"phase", "checkpoint", "invariant_ok", "invariant_fail", "watchdog",
	"panic",
}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Event is one recorded flight-recorder entry. Seq is the global event
// number (monotonic, so a wrapped ring still orders and counts drops);
// Cycle is the simulated cycle; A/B/C carry the per-kind payload.
type Event struct {
	Seq   uint64
	Cycle int64
	Kind  Kind
	A     int64
	B     int64
	C     int64
}

// Recorder is a fixed-size ring of recent events. Construct with
// NewRecorder; a nil *Recorder is a valid no-op target, so call sites need
// no gate of their own.
type Recorder struct {
	ring []Event
	mask uint64
	seq  uint64
}

// NewRecorder returns a recorder holding the most recent `size` events
// (rounded up to a power of two, minimum 64).
func NewRecorder(size int) *Recorder {
	n := 64
	for n < size {
		n <<= 1
	}
	return &Recorder{ring: make([]Event, n), mask: uint64(n) - 1}
}

// Record appends one event, overwriting the oldest when the ring is full.
// Single-writer: the owner's goroutine (or lock) serializes calls.
func (r *Recorder) Record(cycle int64, k Kind, a, b, c int64) {
	if r == nil {
		return
	}
	e := &r.ring[r.seq&r.mask]
	e.Seq = r.seq
	e.Cycle = cycle
	e.Kind = k
	e.A = a
	e.B = b
	e.C = c
	r.seq++
}

// Len returns how many events the ring currently holds.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.seq < uint64(len(r.ring)) {
		return int(r.seq)
	}
	return len(r.ring)
}

// Recorded returns the total number of events ever recorded; subtracting
// Len gives how many the ring has dropped.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}

// Events returns the retained events oldest-first, as a copy.
func (r *Recorder) Events() []Event {
	n := r.Len()
	out := make([]Event, 0, n)
	for i := r.Recorded() - uint64(n); i < r.Recorded(); i++ {
		out = append(out, r.ring[i&r.mask])
	}
	return out
}

// DumpHeader is the first line of a flight-recorder JSONL dump.
type DumpHeader struct {
	Flight   string `json:"flight"` // format version, "v1"
	Source   string `json:"source"` // always "gpu": the simulator writes every dump
	Reason   string `json:"reason"` // what triggered the dump
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
}

// dumpEvent is one JSONL event line, kind stringified for readability.
type dumpEvent struct {
	Seq   uint64 `json:"seq"`
	Cycle int64  `json:"cycle"`
	Kind  string `json:"kind"`
	A     int64  `json:"a"`
	B     int64  `json:"b"`
	C     int64  `json:"c"`
}

// WriteJSONL writes the post-mortem dump: one header line, then the
// retained events oldest-first, one JSON object per line.
func (r *Recorder) WriteJSONL(w io.Writer, reason string) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	hdr := DumpHeader{
		Flight:   "v1",
		Source:   "gpu",
		Reason:   reason,
		Recorded: r.Recorded(),
		Dropped:  r.Recorded() - uint64(r.Len()),
	}
	if err := enc.Encode(hdr); err != nil {
		return err
	}
	for _, e := range r.Events() {
		if err := enc.Encode(dumpEvent{
			Seq: e.Seq, Cycle: e.Cycle, Kind: e.Kind.String(), A: e.A, B: e.B, C: e.C,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Dump writes the JSONL snapshot to <dir>/<name>.flight.jsonl (creating
// dir), returning the path. The name is caller-chosen and deterministic, so
// a retried job overwrites its previous dump instead of accumulating.
func (r *Recorder) Dump(dir, name, reason string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("fleetobs: dump dir: %w", err)
	}
	path := filepath.Join(dir, name+".flight.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("fleetobs: dump: %w", err)
	}
	if err := r.WriteJSONL(f, reason); err != nil {
		f.Close()
		return "", fmt.Errorf("fleetobs: dump %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("fleetobs: dump %s: %w", path, err)
	}
	return path, nil
}
