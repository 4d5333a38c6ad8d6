package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/stats"
)

// Status classifies how a job ended.
type Status string

const (
	// StatusOK: the simulation completed (a detected deadlock is still OK
	// — it is a legitimate experimental result, flagged on the record).
	StatusOK Status = "ok"
	// StatusFailed: the job errored, panicked or timed out.
	StatusFailed Status = "failed"
)

// Record is one JSONL line of sweep output: the job's full configuration
// fingerprint and dimensions, its status, and the measured metrics. It is
// self-describing so a results file can be analyzed without the spec that
// produced it.
type Record struct {
	Fingerprint string `json:"fingerprint"`
	Key         string `json:"key"`

	Benchmark  string           `json:"benchmark"`
	Placement  config.Placement `json:"placement"`
	Routing    config.Routing   `json:"routing"`
	VCPolicy   config.VCPolicy  `json:"vcpolicy"`
	VCsPerPort int              `json:"vcs"`
	VCDepth    int              `json:"depth"`
	Seed       uint64           `json:"seed"`
	Warmup     int              `json:"warmup"`
	Measure    int              `json:"measure"`

	Status     Status         `json:"status"`
	Error      string         `json:"error,omitempty"`
	Deadlocked bool           `json:"deadlocked,omitempty"`
	Metrics    *stats.Metrics `json:"metrics,omitempty"`

	// Exec is the job's execution footprint — wall time, cycles simulated,
	// allocation cost, and (under the fabric) which worker ran it on which
	// attempt. It describes the run, not the experiment: two executions of
	// the same job produce the same record apart from Exec, so every
	// identity comparison (resume, golden tests, cross-mode equivalence)
	// uses the canonical form with Exec stripped.
	Exec *Exec `json:"exec,omitempty"`
}

// Exec is a record's execution footprint. Kept flat — scalar fields only,
// no nested objects or free-form strings beyond the worker name — so
// canonicalization (stripping the "exec" member from an encoded record)
// stays a trivial transformation. WallMS has no omitempty: an Exec present
// on a record always encodes at least one member.
type Exec struct {
	WallMS     int64  `json:"wall_ms"`
	Cycles     int64  `json:"cycles,omitempty"`
	AllocBytes int64  `json:"alloc_bytes,omitempty"`
	Worker     string `json:"worker,omitempty"`
	Attempt    int    `json:"attempt,omitempty"`
}

// Canonical returns the record's identity form: Exec stripped. Execution
// metadata varies run to run (wall time, worker placement, attempt number)
// while the canonical form is a pure function of the job and its simulated
// outcome — so byte comparisons of results across modes, machines, and
// retries compare canonical forms.
func (r Record) Canonical() Record {
	r.Exec = nil
	return r
}

// Fingerprint identifies the job's exact (benchmark, configuration) pair:
// a truncated SHA-256 over the canonical JSON encoding. Two jobs share a
// fingerprint iff they would simulate the same thing, which is what makes
// resume (skip fingerprints already on disk) sound.
//
// NoC.Workers is retired — nothing that simulates reads it — so it is
// hashed at its default: a job that still carries it shares its fingerprint,
// and every stored result, with the same job without it.
func (j Job) Fingerprint() string {
	cfg := j.Cfg
	cfg.NoC.Workers = config.Default().NoC.Workers
	b, err := json.Marshal(struct {
		Benchmark string
		Cfg       config.Config
	}{j.Benchmark, cfg})
	if err != nil {
		// config.Config is a plain value struct; Marshal cannot fail.
		panic("sweep: fingerprint encoding: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// NewRecord returns the dimension-filled record skeleton for j, status
// unset — the starting point for any executor reporting on j: the engine,
// and the fabric coordinator filing a failure record for a poison job it
// quarantines.
func NewRecord(j Job) Record {
	return Record{
		Fingerprint: j.Fingerprint(),
		Key:         j.Key,
		Benchmark:   j.Benchmark,
		Placement:   j.Cfg.Placement,
		Routing:     j.Cfg.NoC.Routing,
		VCPolicy:    j.Cfg.NoC.VCPolicy,
		VCsPerPort:  j.Cfg.NoC.VCsPerPort,
		VCDepth:     j.Cfg.NoC.VCDepth,
		Seed:        j.Cfg.Seed,
		Warmup:      j.Cfg.WarmupCycles,
		Measure:     j.Cfg.MeasureCycles,
	}
}

// Sink receives one record per finished job, in job order. Run calls Write
// from one goroutine at a time, but not always the same one.
type Sink interface {
	Write(Record) error
}

// Memory is a Sink that collects records in memory, for callers that
// forward them elsewhere (the fabric worker batches them back to its
// coordinator). Records returns a snapshot; the zero value is ready to use.
type Memory struct {
	mu   sync.Mutex
	recs []Record
}

// Write appends one record.
func (m *Memory) Write(rec Record) error {
	m.mu.Lock()
	m.recs = append(m.recs, rec)
	m.mu.Unlock()
	return nil
}

// Records returns a copy of everything written so far.
func (m *Memory) Records() []Record {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Record(nil), m.recs...)
}

// JSONL is a Sink writing one JSON object per line. Each record is flushed
// as it is written, so the file is usable after a crash or cancellation.
type JSONL struct {
	mu sync.Mutex
	w  *bufio.Writer
	c  io.Closer
}

// NewJSONL wraps an io.Writer as a JSONL sink.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: bufio.NewWriter(w)}
}

// OpenJSONL opens (appending, creating if needed) a JSONL results file.
// A torn final line — a crash mid-write leaves a partial record with no
// trailing newline — is truncated away first: appending after it would
// otherwise glue the next record onto the partial one and corrupt both.
// The dropped bytes never parsed as a record, so nothing recorded is lost;
// the interrupted job simply re-runs.
func OpenJSONL(path string) (*JSONL, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	if err := truncateTornTail(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("sweep: repairing torn tail of %s: %w", path, err)
	}
	s := NewJSONL(f)
	s.c = f
	return s, nil
}

// truncateTornTail removes a trailing partial line (bytes after the last
// newline) from an open file, leaving complete files untouched.
func truncateTornTail(f *os.File) error {
	info, err := f.Stat()
	if err != nil {
		return err
	}
	size := info.Size()
	if size == 0 {
		return nil
	}
	// Scan backwards from the end for the last newline, one block at a time;
	// a torn record is at most one line so the first block almost always
	// settles it.
	const block = 64 << 10
	end := size
	for end > 0 {
		start := end - block
		if start < 0 {
			start = 0
		}
		buf := make([]byte, end-start)
		if _, err := f.ReadAt(buf, start); err != nil {
			return err
		}
		if i := bytes.LastIndexByte(buf, '\n'); i >= 0 {
			keep := start + int64(i) + 1
			if keep == size {
				return nil // file ends with a newline: nothing torn
			}
			return f.Truncate(keep)
		}
		end = start
	}
	// No newline anywhere: the whole file is one torn line.
	return f.Truncate(0)
}

// Write appends one record and flushes it.
func (s *JSONL) Write(rec Record) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(append(data, '\n')); err != nil {
		return err
	}
	return s.w.Flush()
}

// Close flushes and closes the underlying file, when there is one.
func (s *JSONL) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); err != nil {
		return err
	}
	if s.c != nil {
		return s.c.Close()
	}
	return nil
}

// ReadRecords parses a JSONL results stream. Blank lines are ignored; a
// malformed line, a torn final line included, fails with its line number.
func ReadRecords(r io.Reader) ([]Record, error) {
	var out []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("sweep: results line %d: %w", line, err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("sweep: results line %d: %w", line+1, err)
	}
	return out, nil
}

// CompletedFingerprints returns the fingerprints of every StatusOK record
// in the results file at path — the jobs a resumed sweep leaves out. Failed
// jobs are deliberately not included: a re-run retries them. A missing file
// is an empty set, so resume against a fresh output path just runs
// everything. The read is strict, like ReadRecords: open the file with
// OpenJSONL first, which repairs the torn final line a crash mid-write
// leaves.
func CompletedFingerprints(path string) (map[string]bool, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return map[string]bool{}, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadRecords(f)
	if err != nil {
		return nil, err
	}
	done := make(map[string]bool, len(recs))
	for _, r := range recs {
		if r.Status == StatusOK {
			done[r.Fingerprint] = true
		}
	}
	return done, nil
}
