// Package workload models the 25 GPGPU benchmarks of the paper's evaluation
// (CUDA SDK, ISPASS, Rodinia and MapReduce/Mars suites) as synthetic,
// deterministic per-warp instruction streams.
//
// Substitution note (see DESIGN.md): the paper runs the real CUDA binaries
// under GPGPU-Sim. What the NoC study consumes from a benchmark is the
// memory traffic it generates — injection intensity, read/write mix, spatial
// locality and footprint. Each profile encodes those traits with values
// calibrated from the benchmarks' published characterizations, so the
// paper's traffic-level observations (Figures 2 and 3) emerge from the
// model rather than being hard-coded: the reply:request flit ratio averages
// ~2 because most benchmarks read far more than they write, and RAY inverts
// because of its write demand (Section 3.1.1).
package workload

import (
	"fmt"
	"sort"

	"gpgpunoc/internal/rng"
)

// Profile describes one benchmark's execution character.
type Profile struct {
	Name  string
	Suite string

	// MemFraction is the fraction of issued warp-instructions that access
	// memory; it controls NoC injection intensity (memory-boundedness).
	MemFraction float64
	// StoreFraction is the fraction of memory accesses that are stores;
	// with write-back caches it controls the write-request traffic and the
	// Figure 2/3 read:write mix.
	StoreFraction float64
	// Locality is the probability the next access continues a sequential
	// stream (coalesced SIMT access); it drives L1/L2 hit rates and DRAM
	// row locality.
	Locality float64
	// FootprintBytes is the shared working-set size across the whole GPU.
	FootprintBytes uint64
	// RunAhead is how many outstanding loads a warp tolerates before
	// blocking (memory-level parallelism per warp).
	RunAhead int
	// LongOpFraction/LongOpLatency model occasional long-latency compute
	// (transcendentals and similar multi-cycle operations).
	LongOpFraction float64
	LongOpLatency  int

	// KernelBytes is the size of the kernel's instruction footprint. Warps
	// loop through it; the portion beyond the 2KB L1 instruction cache
	// generates instruction-fetch misses (0 disables fetch modelling).
	KernelBytes uint64
	// SharedFraction is the fraction of instructions that access the SM's
	// 48KB shared memory; each such access costs extra cycles when it
	// conflicts on banks.
	SharedFraction float64
	// BankConflictMean is the average number of extra serialization cycles
	// a shared-memory access pays to bank conflicts.
	BankConflictMean float64
}

// Validate checks profile sanity.
func (p Profile) Validate() error {
	switch {
	case p.Name == "":
		return fmt.Errorf("workload: unnamed profile")
	case p.MemFraction < 0 || p.MemFraction > 1:
		return fmt.Errorf("workload %s: MemFraction %v out of [0,1]", p.Name, p.MemFraction)
	case p.StoreFraction < 0 || p.StoreFraction > 1:
		return fmt.Errorf("workload %s: StoreFraction %v out of [0,1]", p.Name, p.StoreFraction)
	case p.Locality < 0 || p.Locality > 1:
		return fmt.Errorf("workload %s: Locality %v out of [0,1]", p.Name, p.Locality)
	case p.FootprintBytes < accessBytes: // Next's cursor wraps by one subtract
		return fmt.Errorf("workload %s: FootprintBytes %d below one %dB access", p.Name, p.FootprintBytes, accessBytes)
	case p.RunAhead < 1:
		return fmt.Errorf("workload %s: RunAhead must be >= 1", p.Name)
	case p.LongOpFraction < 0 || p.LongOpFraction > 1:
		return fmt.Errorf("workload %s: LongOpFraction %v out of [0,1]", p.Name, p.LongOpFraction)
	case p.SharedFraction < 0 || p.SharedFraction > 1:
		return fmt.Errorf("workload %s: SharedFraction %v out of [0,1]", p.Name, p.SharedFraction)
	case p.BankConflictMean < 0:
		return fmt.Errorf("workload %s: negative BankConflictMean", p.Name)
	}
	return nil
}

// MemoryBound reports whether the profile saturates the memory system
// (used by experiment commentary, not by the simulator).
func (p Profile) MemoryBound() bool { return p.MemFraction >= 0.20 }

const (
	kb = 1 << 10
	mb = 1 << 20
)

// profiles is the calibrated benchmark table. Intensity, write mix and
// locality follow the qualitative characterizations in the benchmark
// suites' papers and the GPGPU-Sim literature: ISPASS'09 for CP..STO,
// Rodinia (IISWC'09), Mars (PACT'08) and the CUDA SDK.
var profiles = []Profile{
	// ISPASS suite.
	{Name: "CP", Suite: "ISPASS", MemFraction: 0.03, StoreFraction: 0.05, Locality: 0.90, FootprintBytes: 256 * kb, RunAhead: 4, LongOpFraction: 0.10, LongOpLatency: 16, KernelBytes: 4 * kb, SharedFraction: 0.02, BankConflictMean: 0.2},
	{Name: "LIB", Suite: "ISPASS", MemFraction: 0.16, StoreFraction: 0.15, Locality: 0.55, FootprintBytes: 448 * kb, RunAhead: 4, KernelBytes: 3 * kb},
	{Name: "LPS", Suite: "ISPASS", MemFraction: 0.20, StoreFraction: 0.25, Locality: 0.75, FootprintBytes: 384 * kb, RunAhead: 6, KernelBytes: 2 * kb, SharedFraction: 0.06, BankConflictMean: 0.5},
	{Name: "MUM", Suite: "ISPASS", MemFraction: 0.32, StoreFraction: 0.10, Locality: 0.25, FootprintBytes: 4 * mb, RunAhead: 8, KernelBytes: 6 * kb},
	{Name: "NN", Suite: "ISPASS", MemFraction: 0.08, StoreFraction: 0.10, Locality: 0.85, FootprintBytes: 512 * kb, RunAhead: 4, KernelBytes: 2 * kb, SharedFraction: 0.03, BankConflictMean: 0.3},
	{Name: "NQU", Suite: "ISPASS", MemFraction: 0.02, StoreFraction: 0.20, Locality: 0.80, FootprintBytes: 128 * kb, RunAhead: 2, LongOpFraction: 0.05, LongOpLatency: 8, KernelBytes: 1 * kb, SharedFraction: 0.2, BankConflictMean: 1.5},
	{Name: "RAY", Suite: "ISPASS", MemFraction: 0.18, StoreFraction: 0.65, Locality: 0.45, FootprintBytes: 448 * kb, RunAhead: 4, KernelBytes: 8 * kb, SharedFraction: 0.02, BankConflictMean: 0.2},
	{Name: "STO", Suite: "ISPASS", MemFraction: 0.20, StoreFraction: 0.50, Locality: 0.70, FootprintBytes: 384 * kb, RunAhead: 4, KernelBytes: 2 * kb, SharedFraction: 0.08, BankConflictMean: 0.6},
	// CUDA SDK.
	{Name: "FWT", Suite: "CUDA SDK", MemFraction: 0.26, StoreFraction: 0.30, Locality: 0.70, FootprintBytes: 384 * kb, RunAhead: 6, KernelBytes: 2 * kb, SharedFraction: 0.08, BankConflictMean: 0.8},
	{Name: "HST", Suite: "CUDA SDK", MemFraction: 0.22, StoreFraction: 0.20, Locality: 0.40, FootprintBytes: 448 * kb, RunAhead: 6, KernelBytes: 1 * kb, SharedFraction: 0.06, BankConflictMean: 1.0},
	{Name: "RED", Suite: "CUDA SDK", MemFraction: 0.30, StoreFraction: 0.12, Locality: 0.90, FootprintBytes: 384 * kb, RunAhead: 8, KernelBytes: 1 * kb, SharedFraction: 0.05, BankConflictMean: 0.4},
	{Name: "SCL", Suite: "CUDA SDK", MemFraction: 0.28, StoreFraction: 0.25, Locality: 0.85, FootprintBytes: 384 * kb, RunAhead: 8, KernelBytes: 1 * kb, SharedFraction: 0.06, BankConflictMean: 0.4},
	{Name: "SM", Suite: "CUDA SDK", MemFraction: 0.30, StoreFraction: 0.10, Locality: 0.50, FootprintBytes: 448 * kb, RunAhead: 6, KernelBytes: 2 * kb},
	// Rodinia.
	{Name: "BPR", Suite: "Rodinia", MemFraction: 0.24, StoreFraction: 0.25, Locality: 0.70, FootprintBytes: 384 * kb, RunAhead: 6, KernelBytes: 2 * kb, SharedFraction: 0.05, BankConflictMean: 0.5},
	{Name: "BFS", Suite: "Rodinia", MemFraction: 0.34, StoreFraction: 0.15, Locality: 0.20, FootprintBytes: 4 * mb, RunAhead: 8, KernelBytes: 2 * kb},
	{Name: "HOT", Suite: "Rodinia", MemFraction: 0.15, StoreFraction: 0.20, Locality: 0.80, FootprintBytes: 512 * kb, RunAhead: 4, KernelBytes: 2 * kb, SharedFraction: 0.1, BankConflictMean: 0.6},
	{Name: "LUD", Suite: "Rodinia", MemFraction: 0.17, StoreFraction: 0.25, Locality: 0.65, FootprintBytes: 512 * kb, RunAhead: 4, KernelBytes: 2 * kb, SharedFraction: 0.12, BankConflictMean: 1.2},
	{Name: "NW", Suite: "Rodinia", MemFraction: 0.25, StoreFraction: 0.30, Locality: 0.60, FootprintBytes: 448 * kb, RunAhead: 4, KernelBytes: 1 * kb, SharedFraction: 0.1, BankConflictMean: 0.8},
	{Name: "SRAD", Suite: "Rodinia", MemFraction: 0.30, StoreFraction: 0.25, Locality: 0.85, FootprintBytes: 384 * kb, RunAhead: 8, KernelBytes: 2 * kb, SharedFraction: 0.05, BankConflictMean: 0.4},
	{Name: "KMN", Suite: "Rodinia", MemFraction: 0.35, StoreFraction: 0.10, Locality: 0.75, FootprintBytes: 384 * kb, RunAhead: 8, KernelBytes: 2 * kb, SharedFraction: 0.04, BankConflictMean: 0.3},
	// MapReduce (Mars).
	{Name: "MM", Suite: "MapReduce", MemFraction: 0.30, StoreFraction: 0.15, Locality: 0.80, FootprintBytes: 384 * kb, RunAhead: 8, KernelBytes: 1 * kb, SharedFraction: 0.05, BankConflictMean: 0.5},
	{Name: "PVC", Suite: "MapReduce", MemFraction: 0.35, StoreFraction: 0.20, Locality: 0.45, FootprintBytes: 448 * kb, RunAhead: 8, KernelBytes: 3 * kb},
	{Name: "PVR", Suite: "MapReduce", MemFraction: 0.34, StoreFraction: 0.20, Locality: 0.45, FootprintBytes: 448 * kb, RunAhead: 8, KernelBytes: 3 * kb},
	{Name: "SS", Suite: "MapReduce", MemFraction: 0.32, StoreFraction: 0.18, Locality: 0.55, FootprintBytes: 448 * kb, RunAhead: 8, KernelBytes: 2 * kb, SharedFraction: 0.02, BankConflictMean: 0.2},
	{Name: "WC", Suite: "MapReduce", MemFraction: 0.30, StoreFraction: 0.15, Locality: 0.50, FootprintBytes: 448 * kb, RunAhead: 8, KernelBytes: 2 * kb},
}

var byName = func() map[string]Profile {
	m := make(map[string]Profile, len(profiles))
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			panic("workload: invalid builtin profile " + p.Name + ": " + err.Error())
		}
		m[p.Name] = p
	}
	return m
}()

// Names returns all benchmark names in the paper's figure order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// Get returns the named profile.
func Get(name string) (Profile, error) {
	p, ok := byName[name]
	if !ok {
		return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	return p, nil
}

// MustGet is Get panicking on error.
func MustGet(name string) Profile {
	p, err := Get(name)
	if err != nil {
		panic(err)
	}
	return p
}

// All returns every profile.
func All() []Profile {
	out := make([]Profile, len(profiles))
	copy(out, profiles)
	return out
}

// Suites returns the distinct suite names, sorted.
func Suites() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range profiles {
		if !seen[p.Suite] {
			seen[p.Suite] = true
			out = append(out, p.Suite)
		}
	}
	sort.Strings(out)
	return out
}

// Kind is an instruction category.
type Kind uint8

const (
	Compute Kind = iota
	Load
	Store
	// Shared is a shared-memory access: it completes inside the SM but
	// pays bank-conflict serialization cycles.
	Shared
)

// Instr is one generated warp-instruction.
type Instr struct {
	Kind    Kind
	Addr    uint64 // coalesced transaction address for Load/Store
	Latency int    // execution latency for Compute/Shared (>= 1)
}

// Generator produces the deterministic instruction stream of one warp. Each
// (benchmark, seed, SM, warp) tuple yields the same stream every run.
type Generator struct {
	prof   *Profile
	odds   *chances // shared by an SM's generators
	rng    *rng.Stream
	cursor uint64
}

// chances is a profile's draws as rng.Chance thresholds, set on build and
// reset; bank is the bank-conflict geometric's per-trial success, 0 for none.
type chances struct{ mem, shared, longOp, locality, store, bank uint64 }

// accessBytes is the coalesced transaction size of a 8-wide SIMT warp doing
// 4-byte accesses: 32 bytes, a quarter of a 128B line, so a sequential
// stream hits L1 three times per line fetched.
const accessBytes = 32

// NewGenerator builds the stream generator for a warp.
func NewGenerator(prof Profile, seed uint64, smID, warpID, warpsPerSM int) *Generator {
	g := newGenerator(&prof, new(chances).set(&prof), rng.New(warpSeed(seed, smID, warpID)), smID, warpID, warpsPerSM)
	return &g
}

// SMWarps is one SM's share of NewGenerators: the profile its generators
// read for as long as they live (and never write), and the run seed and SM
// index their streams derive from.
type SMWarps struct {
	Prof *Profile
	Seed uint64
	SM   int
}

// NewGenerators builds the generators of every SM in sms, warpsPerSM each, in
// three allocations — generators, streams, each SM's shared thresholds — not
// three per warp: SM i's warp w is element i*warpsPerSM+w, what NewGenerator
// returns for that warp.
func NewGenerators(sms []SMWarps, warpsPerSM int) []Generator {
	streams := rng.NewSlab(len(sms)*warpsPerSM, func(k int) uint64 {
		return warpSeed(sms[k/warpsPerSM].Seed, sms[k/warpsPerSM].SM, k%warpsPerSM)
	})
	gs, odds := make([]Generator, len(streams)), make([]chances, len(sms))
	for i := range sms {
		sm := &sms[i]
		odds[i].set(sm.Prof)
		for w := range warpsPerSM {
			k := i*warpsPerSM + w
			gs[k] = newGenerator(sm.Prof, &odds[i], &streams[k], sm.SM, w, warpsPerSM)
		}
	}
	return gs
}

// ResetGenerators rewinds gs, one SM's generators from NewGenerators, in
// place to what NewGenerators returns for that SM under seed and the
// profile they read now: an SM starts its next run without allocating.
func ResetGenerators(gs []Generator, seed uint64, smID int) {
	if len(gs) > 0 {
		gs[0].odds.set(gs[0].prof) // shared by every generator
	}
	for w := range gs {
		g := &gs[w]
		g.rng.Reseed(warpSeed(seed, smID, w))
		g.cursor = startCursor(g.prof, smID, w, len(gs))
	}
}

func warpSeed(seed uint64, smID, warpID int) uint64 {
	return seed ^ uint64(smID)<<32 ^ uint64(warpID)<<16 ^ 0x9e37
}

func newGenerator(prof *Profile, odds *chances, r *rng.Stream, smID, warpID, warpsPerSM int) Generator {
	return Generator{prof: prof, odds: odds, rng: r, cursor: startCursor(prof, smID, warpID, warpsPerSM)}
}

func (c *chances) set(p *Profile) *chances {
	c.mem, c.shared, c.longOp = rng.Chance(p.MemFraction), rng.Chance(p.SharedFraction), rng.Chance(p.LongOpFraction)
	c.locality, c.store, c.bank = rng.Chance(p.Locality), rng.Chance(p.StoreFraction), 0
	if p.BankConflictMean > 0 {
		// Geometric with mean 1/(1+m) successes: extra cycles average m,
		// matching the profile's conflict degree.
		c.bank = rng.Chance(1 / (1 + p.BankConflictMean))
	}
	return c
}

// startCursor is where a warp's stream starts: each warp at a distinct
// offset so warps cover the footprint; interleaving across SMs spreads
// home-MC traffic uniformly.
func startCursor(prof *Profile, smID, warpID, warpsPerSM int) uint64 {
	lane := uint64(smID*warpsPerSM + warpID)
	return (lane * 8192) % prof.FootprintBytes
}

// Next returns the warp's next instruction.
func (g *Generator) Next() Instr {
	c := g.odds
	if !g.rng.Hit(c.mem) {
		// Non-global-memory instruction: shared-memory op or compute.
		if c.shared > 0 && g.rng.Hit(c.shared) {
			lat := 1
			if c.bank > 0 {
				lat = g.rng.GeometricChance(c.bank, 32)
			}
			return Instr{Kind: Shared, Latency: lat}
		}
		lat := 1
		if c.longOp > 0 && g.rng.Hit(c.longOp) {
			lat = g.prof.LongOpLatency
		}
		return Instr{Kind: Compute, Latency: lat}
	}
	// Memory access: continue the sequential stream or jump.
	if g.rng.Hit(c.locality) {
		if g.cursor += accessBytes; g.cursor >= g.prof.FootprintBytes {
			g.cursor -= g.prof.FootprintBytes
		}
	} else {
		g.cursor = g.rng.Uint64n(g.prof.FootprintBytes) &^ (accessBytes - 1)
	}
	kind := Load
	if g.rng.Hit(c.store) {
		kind = Store
	}
	return Instr{Kind: kind, Addr: g.cursor}
}
