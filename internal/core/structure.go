package core

import (
	"sync"
	"sync/atomic"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// StructureKey is everything the paper's safety argument depends on: the
// mesh, where the MCs sit, how packets are routed and which VCs each class
// may take. Seed, benchmark, cycle counts, cache and queue sizes, VC depth
// and the worker count are not in it — the proof is a property of the
// structure, not of a run. It is comparable, so it is the table's map key.
type StructureKey struct {
	Width, Height        int
	Placement            config.Placement
	NumMCs               int
	Routing              config.Routing
	VCPolicy             config.VCPolicy
	VCsPerPort           int
	AsymmetricRequestVCs int
}

// KeyOf projects a configuration onto its structural key.
func KeyOf(cfg config.Config) StructureKey {
	return StructureKey{
		Width:                cfg.NoC.Width,
		Height:               cfg.NoC.Height,
		Placement:            cfg.Placement,
		NumMCs:               cfg.Mem.NumMCs,
		Routing:              cfg.NoC.Routing,
		VCPolicy:             cfg.NoC.VCPolicy,
		VCsPerPort:           cfg.NoC.VCsPerPort,
		AsymmetricRequestVCs: cfg.NoC.AsymmetricRequestVCs,
	}
}

// Structure is the immutable, shareable part of a design point: placement,
// routing algorithm, link-usage analysis and VC assigner, plus the safety
// verdict, which Prove computes the first time it is asked and never again.
// Every configuration with the same key — every seed and benchmark of a
// sweep's grid point, every simulator built for it — gets the same
// *Structure from StructureFor; all of it is read-only after construction,
// so simulators on different goroutines share it freely.
type Structure struct {
	Key       StructureKey
	Mesh      mesh.Mesh
	Placement *placement.Placement
	Algorithm routing.Algorithm
	Usage     *LinkUsage
	Assigner  vc.Assigner

	built sync.Once
	err   error // why construction stopped; the fields after that point are unset

	proved  sync.Once
	verdict error
}

// build fills the structure from its key. The key is all it can see, so it
// cannot read a configuration field the key omits — which is what makes a
// table hit equivalent to building afresh.
func (s *Structure) build() {
	k := s.Key
	s.Mesh = mesh.New(k.Width, k.Height)
	if s.Placement, s.err = placement.New(k.Placement, s.Mesh, k.NumMCs); s.err != nil {
		return
	}
	if s.Algorithm, s.err = routing.New(k.Routing); s.err != nil {
		return
	}
	s.Usage = Analyze(s.Mesh, s.Placement, s.Algorithm)
	s.Assigner, s.err = BuildAssigner(s.Usage, config.NoC{
		VCPolicy:             k.VCPolicy,
		VCsPerPort:           k.VCsPerPort,
		AsymmetricRequestVCs: k.AsymmetricRequestVCs,
	})
}

// proofsRun counts Prove's first calls, so tests can assert the proof runs
// once per structure — and not zero times.
var proofsRun atomic.Int64

// Prove returns the protocol-deadlock verdict, nil meaning safe. Two
// independent proofs: the link-overlap test is the paper's geometric
// argument; the channel-dependency-graph prover verifies acyclicity of the
// induced waiting graph and would catch any cycle the overlap test's
// link-local view missed. Both run on the first call only; concurrent first
// callers wait for the one that got there first.
func (s *Structure) Prove() error {
	s.proved.Do(func() {
		proofsRun.Add(1)
		if s.verdict = s.Usage.CheckPolicy(s.Assigner); s.verdict == nil {
			s.verdict = s.Usage.CDG(s.Assigner, s.Key.VCsPerPort).ProveDeadlockFree()
		}
	})
	return s.verdict
}

// structureCap bounds the table. A sweep crosses a handful of placements,
// routings and policies; 64 covers every grid in the repository several
// times over, and a process that somehow walks more pays one re-proof per
// evicted structure, never a wrong answer.
const structureCap = 64

// structures is the process-wide table: one Structure per key, evicted in
// insertion order at the cap.
var structures = struct {
	sync.Mutex
	byKey map[StructureKey]*Structure
	order []StructureKey
}{byKey: map[StructureKey]*Structure{}}

// lookup returns the table's structure for k, built. The table lock covers
// only the map; building happens under the entry's own Once, so a first
// caller proving a 16x16 mesh does not hold up lookups of other keys.
func lookup(k StructureKey) *Structure {
	t := &structures
	t.Lock()
	s, ok := t.byKey[k]
	if !ok {
		if len(t.order) == structureCap {
			delete(t.byKey, t.order[0])
			t.order = append(t.order[:0], t.order[1:]...)
		}
		s = &Structure{Key: k}
		t.byKey[k] = s
		t.order = append(t.order, k)
	}
	t.Unlock()
	s.built.Do(s.build)
	return s
}

// StructureFor returns the shared Structure of cfg's design point, building
// it on first sight. cfg must have passed the structural half of Validate
// (the safety hook and gpu.New call it only then). It does not prove
// anything: call Prove, or go through cfg.Validate, which does.
func StructureFor(cfg config.Config) (*Structure, error) {
	s := lookup(KeyOf(cfg))
	if s.err != nil {
		return nil, s.err
	}
	return s, nil
}

// init installs the safety analysis as config.Validate's deadlock check: any
// package importing core (gpu, sweep, experiments and every cmd) gets full
// validation — structure plus protocol-deadlock safety — from
// config.Validate alone. Configurations that set AllowUnsafe bypass only
// this check, never the structural ones.
func init() {
	config.RegisterSafetyCheck(func(cfg config.Config) error {
		s, err := StructureFor(cfg)
		if err != nil {
			return err
		}
		return s.Prove()
	})
}

// ValidateScheme builds the scheme's pieces on the mesh defined by base and
// verifies protocol-deadlock safety, returning the analysis for inspection
// even when the scheme is unsafe.
func ValidateScheme(s Scheme, base config.Config) (*LinkUsage, error) {
	cfg := s.Apply(base)
	// Structural validation only: the verdict is asked for below, so the
	// LinkUsage can be returned beside it.
	cfg.AllowUnsafe = true
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	st := lookup(KeyOf(cfg))
	if st.err != nil {
		return st.Usage, st.err
	}
	return st.Usage, st.Prove()
}
