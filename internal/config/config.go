// Package config holds the system configuration of the simulated GPGPU,
// reproducing Table 2 of the paper verbatim in Default and allowing every
// experiment to derive variants from it.
package config

import (
	"errors"
	"fmt"
)

// Placement names a memory-controller placement scheme (Figure 5).
type Placement string

// Placement schemes evaluated in the paper.
const (
	PlacementBottom    Placement = "bottom"
	PlacementTop       Placement = "top"
	PlacementEdge      Placement = "edge"
	PlacementTopBottom Placement = "top-bottom"
	PlacementDiamond   Placement = "diamond"
)

// Placements lists the schemes in the order Figure 9 reports them.
func Placements() []Placement {
	return []Placement{PlacementEdge, PlacementDiamond, PlacementTopBottom, PlacementBottom}
}

// Routing names a dimension-order routing algorithm (Section 3.2.2).
type Routing string

// Routing algorithms evaluated in the paper. XYYX routes requests XY and
// replies YX.
const (
	RoutingXY   Routing = "xy"
	RoutingYX   Routing = "yx"
	RoutingXYYX Routing = "xy-yx"
)

// Routings lists the algorithms in the order Figure 7 reports them.
func Routings() []Routing { return []Routing{RoutingXY, RoutingYX, RoutingXYYX} }

// VCPolicy names a virtual-channel partitioning policy (Section 3.2.1).
type VCPolicy string

// VC policies. Shared is the deliberately unsafe baseline used to
// demonstrate protocol deadlock; the paper's proposals are Monopolized,
// PartialMonopolized and Asymmetric.
const (
	VCSplit              VCPolicy = "split"       // equal request/reply partition (baseline)
	VCAsymmetric         VCPolicy = "asymmetric"  // 1 request : V-1 reply
	VCMonopolized        VCPolicy = "monopolized" // all VCs for either class (needs disjoint links)
	VCPartialMonopolized VCPolicy = "partial"     // monopolize vertical links only (XY-YX)
	VCShared             VCPolicy = "shared"      // unsafe: no class separation at all
)

// NoC is the network configuration.
type NoC struct {
	Width, Height int // mesh dimensions
	VCsPerPort    int // virtual channels per input port
	VCDepth       int // buffer slots per VC, in flits
	Routing       Routing
	VCPolicy      VCPolicy
	// AsymmetricRequestVCs is the number of VCs given to the request class
	// by the asymmetric policy (Figure 10 uses 1 of 4).
	AsymmetricRequestVCs int
	// InjectionFlitsPerCycle is the node-to-router ingress bandwidth. It is
	// wider than a mesh link so endpoint injection is not the artificial
	// bottleneck: the paper's reference [3] makes the same adjustment for
	// MC ingress, and the interesting contention must form on the mesh
	// links the schemes reshape.
	InjectionFlitsPerCycle int
	// PhysicalSubnets simulates two physical networks (one per traffic
	// class) instead of one network with VC separation, for the Section
	// 4.2 "network division" comparison. Each subnet gets VCsPerPort/2
	// VCs and, by default, full-width channels — the doubled wire budget
	// of prior work.
	PhysicalSubnets bool
	// SubnetHalfWidth gives each physical subnet half-width channels (one
	// flit per two cycles), holding the total wire budget equal to the
	// single network instead of doubling it.
	SubnetHalfWidth bool
	// Workers is retired and read by nothing that simulates: the kernel
	// steps the whole mesh on the calling goroutine. The field stays so that
	// stored configurations, sweep specs and fabric payloads that carry it
	// still decode; sweep fingerprints and the figure runners' result memo
	// fold it to its default, so such an input shares every result with the
	// same input without it.
	Workers int
}

// Mem is the memory-system configuration.
type Mem struct {
	NumMCs         int
	L1DataBytes    int
	L1Ways         int
	L1InstBytes    int
	L1InstWays     int
	L2BytesPerMC   int
	L2Ways         int
	LineBytes      int
	L1MSHRs        int
	MinL2Cycles    int // minimum L2 access latency (Table 2: 120)
	MinDRAMCycles  int // minimum DRAM access latency (Table 2: 220)
	DRAMBanksPerMC int
	RowBufferBytes int
	MCRequestQueue int  // admission window per MC: a request holds its slot until its reply injects
	UseFRFCFS      bool // FR-FCFS DRAM scheduling (paper baseline: in-order)
	// MCServicePeriod is the NoC cycles between reply issues at an MC,
	// bounding L2/GDDR service bandwidth (~1 flit/cycle at the default).
	MCServicePeriod int
}

// Core is the SM configuration.
type Core struct {
	NumSMs     int
	WarpsPerSM int
}

// Config is the full simulated-system configuration.
type Config struct {
	NoC       NoC
	Mem       Mem
	Core      Core
	Placement Placement
	Seed      uint64

	// WarmupCycles are simulated before statistics collection starts;
	// MeasureCycles are then simulated with statistics enabled.
	WarmupCycles  int
	MeasureCycles int

	// AllowUnsafe accepts configurations the protocol-deadlock safety
	// analysis rejects (for demonstrations that want to watch an unsafe
	// design wedge). It travels with the configuration so every entry
	// point — CLIs, sweep jobs, JSON files — shares one escape hatch.
	AllowUnsafe bool
}

// Default returns the Table 2 baseline configuration: 56 SMs + 8 MCs on an
// 8x8 mesh, XY routing, bottom MC placement, 2 VCs/port of depth 4 split
// between request and reply traffic.
func Default() Config {
	return Config{
		NoC: NoC{
			Width:                  8,
			Height:                 8,
			VCsPerPort:             2,
			VCDepth:                4,
			Routing:                RoutingXY,
			VCPolicy:               VCSplit,
			AsymmetricRequestVCs:   1,
			InjectionFlitsPerCycle: 2,
			Workers:                1,
		},
		Mem: Mem{
			NumMCs:         8,
			L1DataBytes:    16 << 10,
			L1Ways:         4,
			L1InstBytes:    2 << 10,
			L1InstWays:     4,
			L2BytesPerMC:   64 << 10,
			L2Ways:         8,
			LineBytes:      128,
			L1MSHRs:        32,
			MinL2Cycles:    120,
			MinDRAMCycles:  220,
			DRAMBanksPerMC: 8,
			RowBufferBytes: 2 << 10,
			MCRequestQueue: 32,
			// One reply per 4 NoC cycles ~ 1.1 flits/cycle sustained per
			// MC (mixed 5-flit read replies and 1-flit write acks): the
			// 924 MHz L2/GDDR datapath feeding a 1400 MHz 32B channel.
			MCServicePeriod: 5,
		},
		Core: Core{
			NumSMs:     56,
			WarpsPerSM: 48,
		},
		Placement:     PlacementBottom,
		Seed:          1,
		WarmupCycles:  2_000,
		MeasureCycles: 20_000,
	}
}

// safetyCheck holds the protocol-deadlock safety analysis installed by
// internal/core. It lives behind a registration hook because the exact
// analysis needs path enumeration over mesh/placement/routing, which import
// this package; the hook inverts the dependency so Validate stays the single
// entry point for all configuration checking.
var safetyCheck func(Config) error

// RegisterSafetyCheck installs the deadlock-safety analysis Validate runs
// on configurations that do not set AllowUnsafe. internal/core registers
// the paper's exact link-usage analysis at init time; any package that
// imports it (gpu, sweep, experiments, every cmd) therefore gets full
// validation from Validate alone.
func RegisterSafetyCheck(f func(Config) error) { safetyCheck = f }

// maxVCsPerPort is the router's VC limit: internal/noc keeps one bit per
// input VC of a router's five ports in a single 64-bit word.
const maxVCsPerPort = 12

// Validate checks internal consistency; every entry point (CLIs, sweep
// jobs, JSON files, simulator construction) calls it so configuration bugs
// fail fast with a clear message. Beyond structural checks it runs the
// registered protocol-deadlock safety analysis unless AllowUnsafe is set.
func (c Config) Validate() error {
	n := c.NoC
	switch {
	case n.Width <= 1 || n.Height <= 1:
		return fmt.Errorf("config: mesh %dx%d too small", n.Width, n.Height)
	case n.VCsPerPort < 1:
		return errors.New("config: need at least 1 VC per port")
	case n.VCsPerPort > maxVCsPerPort:
		return fmt.Errorf("config: %d VCs per port exceed %d: the router tracks its 5 ports x V input VCs in one 64-bit request mask",
			n.VCsPerPort, maxVCsPerPort)
	case n.VCDepth < 1:
		return errors.New("config: need VC depth >= 1")
	case n.InjectionFlitsPerCycle < 1:
		return errors.New("config: need injection bandwidth >= 1 flit/cycle")
	}
	switch n.Routing {
	case RoutingXY, RoutingYX, RoutingXYYX:
	default:
		return fmt.Errorf("config: unknown routing %q", n.Routing)
	}
	switch n.VCPolicy {
	case VCSplit, VCAsymmetric, VCMonopolized, VCPartialMonopolized, VCShared:
	default:
		return fmt.Errorf("config: unknown VC policy %q", n.VCPolicy)
	}
	if n.VCPolicy == VCSplit && n.VCsPerPort < 2 {
		return errors.New("config: split VC policy needs >= 2 VCs per port")
	}
	if n.VCPolicy == VCAsymmetric &&
		(n.AsymmetricRequestVCs < 1 || n.AsymmetricRequestVCs >= n.VCsPerPort) {
		return fmt.Errorf("config: asymmetric policy needs 1 <= request VCs (%d) < total VCs (%d)",
			n.AsymmetricRequestVCs, n.VCsPerPort)
	}
	if n.PhysicalSubnets && n.VCsPerPort%2 != 0 {
		return errors.New("config: physical subnets need an even VC count to split")
	}
	if n.SubnetHalfWidth && !n.PhysicalSubnets {
		return errors.New("config: SubnetHalfWidth requires PhysicalSubnets")
	}
	switch c.Placement {
	case PlacementBottom, PlacementTop, PlacementEdge, PlacementTopBottom, PlacementDiamond:
	default:
		return fmt.Errorf("config: unknown placement %q", c.Placement)
	}
	if c.Mem.NumMCs <= 0 || c.Mem.NumMCs > n.Width*n.Height {
		return fmt.Errorf("config: %d MCs does not fit a %dx%d mesh", c.Mem.NumMCs, n.Width, n.Height)
	}
	if c.Core.NumSMs+c.Mem.NumMCs > n.Width*n.Height {
		return fmt.Errorf("config: %d SMs + %d MCs exceed %d tiles",
			c.Core.NumSMs, c.Mem.NumMCs, n.Width*n.Height)
	}
	if c.Mem.LineBytes <= 0 || c.Mem.LineBytes&(c.Mem.LineBytes-1) != 0 {
		return fmt.Errorf("config: line size %d must be a positive power of two", c.Mem.LineBytes)
	}
	m := c.Mem
	for _, cc := range []struct {
		name        string
		bytes, ways int
	}{{"L1 data", m.L1DataBytes, m.L1Ways}, {"L1 instruction", m.L1InstBytes, m.L1InstWays}, {"L2", m.L2BytesPerMC, m.L2Ways}} {
		if cc.bytes <= 0 || cc.ways <= 0 || cc.bytes%(cc.ways*m.LineBytes) != 0 {
			return fmt.Errorf("config: %s cache %dB/%d-way with %dB lines is not a whole number of sets",
				cc.name, cc.bytes, cc.ways, m.LineBytes)
		}
		if sets := cc.bytes / (cc.ways * m.LineBytes); sets&(sets-1) != 0 {
			return fmt.Errorf("config: %s cache %dB/%d-way with %dB lines has %d sets, not a power of two (sets are indexed by address bits)",
				cc.name, cc.bytes, cc.ways, m.LineBytes, sets)
		}
	}
	switch {
	case m.L1MSHRs < 1:
		return errors.New("config: need at least 1 L1 MSHR")
	case m.MCRequestQueue < 1:
		return errors.New("config: need an MC request queue of at least 1")
	case m.DRAMBanksPerMC < 1 || m.RowBufferBytes < 1 || m.MinDRAMCycles < 1:
		return fmt.Errorf("config: DRAM needs positive banks (%d), row buffer bytes (%d) and latency (%d)",
			m.DRAMBanksPerMC, m.RowBufferBytes, m.MinDRAMCycles)
	case c.Core.WarpsPerSM < 1:
		return errors.New("config: need at least 1 warp per SM")
	}
	if c.MeasureCycles <= 0 {
		return errors.New("config: MeasureCycles must be positive")
	}
	if c.WarmupCycles < 0 {
		return errors.New("config: WarmupCycles must be non-negative")
	}
	if c.Mem.MCServicePeriod <= 0 {
		return errors.New("config: MCServicePeriod must be positive")
	}
	if !c.AllowUnsafe && safetyCheck != nil {
		if err := safetyCheck(c); err != nil {
			return err
		}
	}
	return nil
}
