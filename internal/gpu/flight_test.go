package gpu

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpgpunoc/internal/fleetobs"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/workload"
)

// failingNet wraps the real interconnect and makes CheckInvariants fail
// after a set number of calls — an injected invariant violation.
type failingNet struct {
	noc.Interconnect
	checks int
	failAt int
}

func (f *failingNet) CheckInvariants() error {
	f.checks++
	if f.checks >= f.failAt {
		return fmt.Errorf("injected invariant violation (check %d)", f.checks)
	}
	return f.Interconnect.CheckInvariants()
}

// panicNet wraps the real interconnect and panics on the Nth Step.
type panicNet struct {
	noc.Interconnect
	steps   int
	panicAt int
}

func (p *panicNet) Step() {
	p.steps++
	if p.steps >= p.panicAt {
		panic("injected kernel panic")
	}
	p.Interconnect.Step()
}

// flightDump reads a flight-recorder dump's JSONL lines: the header, then
// each event's kind.
func flightDump(t *testing.T, path string) (fleetobs.DumpHeader, []string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("dump not written: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	var hdr fleetobs.DumpHeader
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("dump header: %v", err)
	}
	kinds := make([]string, len(lines)-1)
	for i, line := range lines[1:] {
		var e struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("dump line %d: %v", i+2, err)
		}
		kinds[i] = e.Kind
	}
	return hdr, kinds
}

func TestFlightDumpOnInvariantFailure(t *testing.T) {
	dir := t.TempDir()
	prof := workload.MustGet("KMN")
	s, err := New(quickCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFlight(256, dir)
	s.SanitizeEvery = 64
	// Swap in the failing wrapper after AttachFlight: the recorder stays on
	// the real network underneath, the wrapper only intercepts the check.
	s.Net = &failingNet{Interconnect: s.Net, failAt: 5}

	_, err = s.RunContext(context.Background())
	if err == nil {
		t.Fatal("expected sanitizer error")
	}
	if !strings.Contains(err.Error(), "injected invariant violation") {
		t.Fatalf("error does not carry the violation: %v", err)
	}
	if !strings.Contains(err.Error(), "flight dump: ") {
		t.Fatalf("error does not point at the flight dump: %v", err)
	}
	hdr, events := flightDump(t, filepath.Join(dir, fmt.Sprintf("%s-s%d-invariant.flight.jsonl", prof.Name, s.Cfg.Seed)))
	if hdr.Source != "gpu" || hdr.Reason != "invariant" {
		t.Fatalf("dump header %+v", hdr)
	}
	if len(events) == 0 {
		t.Fatal("dump carries no events")
	}
	if last := events[len(events)-1]; last != fleetobs.KindInvariantFail.String() {
		t.Fatalf("last event %v, want invariant_fail", last)
	}
	// The sampled checks before the failure must be on record too.
	var oks int
	for _, e := range events {
		if e == fleetobs.KindInvariantOK.String() {
			oks++
		}
	}
	if oks != 4 {
		t.Fatalf("recorded %d invariant_ok events before the failure, want 4", oks)
	}
}

func TestFlightDumpOnPanic(t *testing.T) {
	dir := t.TempDir()
	prof := workload.MustGet("KMN")
	s, err := New(quickCfg(), prof)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFlight(256, dir)
	s.Net = &panicNet{Interconnect: s.Net, panicAt: 700}

	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic was swallowed instead of re-raised")
			}
		}()
		s.RunContext(context.Background())
	}()

	hdr, events := flightDump(t, filepath.Join(dir, fmt.Sprintf("%s-s%d-panic.flight.jsonl", prof.Name, s.Cfg.Seed)))
	if hdr.Reason != "panic" {
		t.Fatalf("dump header %+v", hdr)
	}
	if last := events[len(events)-1]; last != fleetobs.KindPanic.String() {
		t.Fatalf("last event %v, want panic", last)
	}
}

// flightRun runs KMN on quickCfg with a recorder of size events attached.
func flightRun(t *testing.T, size int) Result {
	t.Helper()
	s, err := New(quickCfg(), workload.MustGet("KMN"))
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFlight(size, "")
	res, err := s.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFlightRecordsCleanRun(t *testing.T) {
	res := flightRun(t, 4096)
	if res.Flight == nil {
		t.Fatal("result does not carry the recorder")
	}
	events := res.Flight.Events()
	var phases, checkpoints int
	for _, e := range events {
		switch e.Kind {
		case fleetobs.KindPhase:
			phases++
		case fleetobs.KindCheckpoint:
			checkpoints++
		}
	}
	if phases != 2 {
		t.Fatalf("recorded %d phase entries, want 2 (warmup + measurement)", phases)
	}
	if checkpoints == 0 {
		t.Fatal("no checkpoint events recorded")
	}
}

func TestFlightRecorderDoesNotChangeResults(t *testing.T) {
	base, err := Run(context.Background(), quickCfg(), "KMN", Instrumentation{})
	if err != nil {
		t.Fatal(err)
	}
	rec := flightRun(t, 1<<14)
	if base.IPC != rec.IPC || base.GPU != rec.GPU {
		t.Fatalf("recorder changed results: base IPC %v GPU %+v, recorded IPC %v GPU %+v",
			base.IPC, base.GPU, rec.IPC, rec.GPU)
	}
}
