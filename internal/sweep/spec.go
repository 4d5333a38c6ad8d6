// Package sweep is the design-space orchestration engine: it expands a
// declarative specification (a cartesian grid over benchmark × placement ×
// routing × VC policy × VC shape × seed, pruned by include/exclude filters)
// into independent simulation jobs and runs them on a bounded worker pool
// with cancellation, per-job timeouts and per-job panic isolation. Results
// stream to a JSONL sink — one self-describing record per job — so a
// partially-completed sweep is usable and a re-run resumes by skipping the
// jobs already on disk.
//
// The paper's evaluation (Figures 7-10) is exactly such a sweep; the
// internal/experiments figure runners are thin consumers of this engine.
package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strconv"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/workload"
)

// Spec declares a sweep as the cartesian product of its dimension lists.
// Empty dimensions inherit the base configuration's value, so a spec only
// names the axes it varies. Base defaults to config.Default().
type Spec struct {
	Base *config.Config `json:"base,omitempty"`

	Benchmarks []string           `json:"benchmarks,omitempty"`
	Placements []config.Placement `json:"placements,omitempty"`
	Routings   []config.Routing   `json:"routings,omitempty"`
	VCPolicies []config.VCPolicy  `json:"vcpolicies,omitempty"`
	VCsPerPort []int              `json:"vcs,omitempty"`
	VCDepths   []int              `json:"depths,omitempty"`
	Seeds      []uint64           `json:"seeds,omitempty"`

	// WarmupCycles/MeasureCycles override the base when > 0.
	WarmupCycles  int `json:"warmup,omitempty"`
	MeasureCycles int `json:"measure,omitempty"`

	// Include keeps only jobs matching at least one filter (when
	// non-empty); Exclude then drops jobs matching any filter.
	Include []Filter `json:"include,omitempty"`
	Exclude []Filter `json:"exclude,omitempty"`

	// SkipInvalid drops grid points that fail config.Validate — e.g.
	// protocol-deadlock-unsafe placement/routing/policy combinations in a
	// full cartesian grid — reporting them as skips instead of failing
	// the expansion. A grid over policies almost always wants this.
	SkipInvalid bool `json:"skip_invalid,omitempty"`
}

// Filter matches jobs by dimension values; an empty field is a wildcard.
type Filter struct {
	Benchmarks []string           `json:"benchmarks,omitempty"`
	Placements []config.Placement `json:"placements,omitempty"`
	Routings   []config.Routing   `json:"routings,omitempty"`
	VCPolicies []config.VCPolicy  `json:"vcpolicies,omitempty"`
}

func (f Filter) matches(bench string, cfg config.Config) bool {
	return containsStr(f.Benchmarks, bench) &&
		contains(f.Placements, cfg.Placement) &&
		contains(f.Routings, cfg.NoC.Routing) &&
		contains(f.VCPolicies, cfg.NoC.VCPolicy)
}

func containsStr(list []string, v string) bool {
	if len(list) == 0 {
		return true
	}
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

func contains[T comparable](list []T, v T) bool {
	if len(list) == 0 {
		return true
	}
	for _, x := range list {
		if x == v {
			return true
		}
	}
	return false
}

// Job is one independent simulation of the sweep.
type Job struct {
	Key       string // human-readable unique label
	Benchmark string
	Cfg       config.Config
}

// Skip records a grid point the expansion dropped and why.
type Skip struct {
	Key    string
	Reason string
}

// ReadSpec loads a JSON spec file. Unknown fields are rejected so a typo
// in a dimension name cannot silently produce the wrong design space.
func ReadSpec(path string) (Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Spec{}, err
	}
	return ParseSpec(data)
}

// ParseSpec decodes a JSON spec, rejecting unknown fields.
func ParseSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("sweep: bad spec: %w", err)
	}
	return s, nil
}

// Expand enumerates the grid in deterministic (nested-loop) order and
// returns the jobs to run plus the grid points filtered or skipped.
// Every job's configuration is validated here, before any simulation
// starts: with SkipInvalid unsafe/invalid combinations become Skips,
// otherwise the first invalid point fails the whole expansion.
func (s Spec) Expand() ([]Job, []Skip, error) {
	base := config.Default()
	if s.Base != nil {
		base = *s.Base
	}
	if s.WarmupCycles > 0 {
		base.WarmupCycles = s.WarmupCycles
	}
	if s.MeasureCycles > 0 {
		base.MeasureCycles = s.MeasureCycles
	}

	benches := s.Benchmarks
	if len(benches) == 0 {
		benches = workload.Names()
	}
	for _, b := range benches {
		if _, err := workload.Get(b); err != nil {
			return nil, nil, fmt.Errorf("sweep: %w", err)
		}
	}
	placements := s.Placements
	if len(placements) == 0 {
		placements = []config.Placement{base.Placement}
	}
	routings := s.Routings
	if len(routings) == 0 {
		routings = []config.Routing{base.NoC.Routing}
	}
	policies := s.VCPolicies
	if len(policies) == 0 {
		policies = []config.VCPolicy{base.NoC.VCPolicy}
	}
	vcs := s.VCsPerPort
	if len(vcs) == 0 {
		vcs = []int{base.NoC.VCsPerPort}
	}
	depths := s.VCDepths
	if len(depths) == 0 {
		depths = []int{base.NoC.VCDepth}
	}
	seeds := s.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{base.Seed}
	}

	// Presized to the whole grid: filters and skips only leave it unused.
	jobs := make([]Job, 0, len(benches)*len(placements)*len(routings)*len(policies)*len(vcs)*len(depths)*len(seeds))
	var skipped []Skip
	for _, b := range benches {
		for _, pl := range placements {
			for _, rt := range routings {
				for _, pol := range policies {
					for _, v := range vcs {
						for _, d := range depths {
							for _, seed := range seeds {
								cfg := base
								cfg.Placement = pl
								cfg.NoC.Routing = rt
								cfg.NoC.VCPolicy = pol
								cfg.NoC.VCsPerPort = v
								cfg.NoC.VCDepth = d
								cfg.Seed = seed
								if !s.included(b, cfg) {
									continue
								}
								key := jobKey(b, cfg)
								if err := cfg.Validate(); err != nil {
									if s.SkipInvalid {
										skipped = append(skipped, Skip{Key: key, Reason: err.Error()})
										continue
									}
									return nil, nil, fmt.Errorf("sweep: job %s: %w", key, err)
								}
								jobs = append(jobs, Job{Key: key, Benchmark: b, Cfg: cfg})
							}
						}
					}
				}
			}
		}
	}
	if len(jobs) == 0 {
		return nil, skipped, fmt.Errorf("sweep: spec expands to no runnable jobs (%d skipped)", len(skipped))
	}
	return jobs, skipped, nil
}

func (s Spec) included(bench string, cfg config.Config) bool {
	if len(s.Include) > 0 {
		ok := false
		for _, f := range s.Include {
			if f.matches(bench, cfg) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	for _, f := range s.Exclude {
		if f.matches(bench, cfg) {
			return false
		}
	}
	return true
}

// jobKey names a grid point: bench/placement/routing/policy/v<VCs>d<depth>/s<seed>.
func jobKey(bench string, cfg config.Config) string {
	b := make([]byte, 0, 64)
	b = append(b, bench...)
	for _, part := range [...]string{string(cfg.Placement), string(cfg.NoC.Routing), string(cfg.NoC.VCPolicy)} {
		b = append(b, '/')
		b = append(b, part...)
	}
	b = append(b, "/v"...)
	b = strconv.AppendInt(b, int64(cfg.NoC.VCsPerPort), 10)
	b = append(b, 'd')
	b = strconv.AppendInt(b, int64(cfg.NoC.VCDepth), 10)
	b = append(b, "/s"...)
	b = strconv.AppendUint(b, cfg.Seed, 10)
	return string(b)
}
