// Package core implements the paper's central contribution: deciding when
// GPGPU request and reply traffic can safely monopolize virtual channels, and
// composing placement, routing and VC policy into bandwidth-efficient NoC
// schemes.
//
// Section 3.2.1 argues geometrically (Figures 4 and 6) that with the bottom
// MC placement and pure dimension-order routing the two traffic classes never
// share a directed link, so the request/reply VC split that conventionally
// guards against protocol deadlock is unnecessary and every VC can be
// monopolized by whichever class uses the link. This package mechanizes that
// argument: Analyze enumerates every route of both classes and counts the
// routes of each class on each directed link; Verdict then says whether
// full, partial or no monopolization is protocol-deadlock safe, and
// CheckPolicy validates any concrete VC policy against the analysis.
// Structure (structure.go) holds
// the analysis and its verdict once per design point; config.Validate,
// gpu.New and the synthetic harness all go through it.
package core

import (
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// LinkUsage records, for every directed link of the mesh, how many routes of
// each traffic class cross it under a given placement and routing algorithm:
// the coefficients Figures 4 and 6 draw. Which classes use a link, the
// safety verdict and internal/analytic's link loads are all read from these
// counts.
type LinkUsage struct {
	Mesh      mesh.Mesh
	Placement *placement.Placement
	Algorithm routing.Algorithm

	routes [packet.NumClasses][]int // indexed by mesh.LinkIndex
}

// eachRoute is the one enumeration of a design point's routes: for every MC
// in order, and every core under it, fn gets the MC's index, the request
// route core->MC and the reply route MC->core. Dimension-order routing is
// deterministic, so these are precisely the links the simulator will
// exercise. Analyze counts them; CDG chains them. The two slices are one
// pair of buffers refilled for every route, so fn must not keep them.
func eachRoute(m mesh.Mesh, pl *placement.Placement, alg routing.Algorithm, fn func(mc int, req, rep []mesh.Link)) {
	cores := pl.Cores()
	var req, rep []mesh.Link
	for i := range pl.MCs {
		mcID := pl.MCNode(i)
		for _, coreID := range cores {
			req = routing.AppendPath(req[:0], m, alg, coreID, mcID, packet.Request)
			rep = routing.AppendPath(rep[:0], m, alg, mcID, coreID, packet.Reply)
			fn(i, req, rep)
		}
	}
}

// Analyze counts, per directed link and class, the routes of every
// (core, MC) pair that cross it. The result is exact.
func Analyze(m mesh.Mesh, pl *placement.Placement, alg routing.Algorithm) *LinkUsage {
	u := &LinkUsage{Mesh: m, Placement: pl, Algorithm: alg}
	for c := range u.routes {
		u.routes[c] = make([]int, m.NumLinkSlots())
	}
	eachRoute(m, pl, alg, func(_ int, req, rep []mesh.Link) {
		for _, l := range req {
			u.routes[packet.Request][m.LinkIndex(l)]++
		}
		for _, l := range rep {
			u.routes[packet.Reply][m.LinkIndex(l)]++
		}
	})
	return u
}

// RouteCount returns the number of routes of class cls crossing link l.
func (u *LinkUsage) RouteCount(l mesh.Link, cls packet.Class) int {
	return u.routes[cls][u.Mesh.LinkIndex(l)]
}

// UsedBy reports whether class cls traverses link l.
func (u *LinkUsage) UsedBy(l mesh.Link, cls packet.Class) bool {
	return u.RouteCount(l, cls) > 0
}

// Mixed reports whether both classes traverse link l.
func (u *LinkUsage) Mixed(l mesh.Link) bool {
	return u.UsedBy(l, packet.Request) && u.UsedBy(l, packet.Reply)
}

// MixedLinks returns every directed link both classes use.
func (u *LinkUsage) MixedLinks() []mesh.Link {
	var out []mesh.Link
	for _, l := range u.Mesh.Links() {
		if u.Mixed(l) {
			out = append(out, l)
		}
	}
	return out
}

// MixedOrientations reports whether any horizontal and any vertical link
// carries both classes. This is the paper's Figure 4/6 observation in
// computable form: bottom+XY and bottom+YX mix on nothing; bottom+XY-YX
// mixes only horizontally; distributed placements mix on both.
func (u *LinkUsage) MixedOrientations() (horizontal, vertical bool) {
	for _, l := range u.Mesh.Links() {
		if !u.Mixed(l) {
			continue
		}
		switch l.Dir.Orientation() {
		case mesh.Horizontal:
			horizontal = true
		case mesh.Vertical:
			vertical = true
		}
		if horizontal && vertical {
			return
		}
	}
	return
}

// Verdict classifies how aggressively VCs may be monopolized under the
// analyzed placement and routing.
type Verdict int

const (
	// FullMonopolizingSafe: no directed link carries both classes; every VC
	// on every link may serve either class.
	FullMonopolizingSafe Verdict = iota
	// PartialMonopolizingSafe: only horizontal links mix classes; vertical
	// links may be monopolized, horizontal links must stay partitioned.
	PartialMonopolizingSafe
	// PartitionRequired: classes mix on vertical links too (possibly both);
	// all links must keep disjoint per-class VC sets.
	PartitionRequired
)

var verdictNames = map[Verdict]string{
	FullMonopolizingSafe:    "full-monopolizing-safe",
	PartialMonopolizingSafe: "partial-monopolizing-safe",
	PartitionRequired:       "partition-required",
}

// String names the verdict.
func (v Verdict) String() string { return verdictNames[v] }

// Verdict computes the monopolization verdict from the link analysis.
func (u *LinkUsage) Verdict() Verdict {
	h, v := u.MixedOrientations()
	switch {
	case !h && !v:
		return FullMonopolizingSafe
	case h && !v:
		return PartialMonopolizingSafe
	default:
		return PartitionRequired
	}
}

// CheckPolicy reports whether asg is protocol-deadlock safe under the
// analyzed placement and routing: on every directed link used by both
// classes, the classes' VC ranges must be disjoint. A nil error means safe.
func (u *LinkUsage) CheckPolicy(asg vc.Assigner) error {
	for _, l := range u.Mesh.Links() {
		if !u.Mixed(l) {
			continue
		}
		o := l.Dir.Orientation()
		req := asg.RangeFor(l, o, packet.Request)
		rep := asg.RangeFor(l, o, packet.Reply)
		if req.Overlaps(rep) {
			return fmt.Errorf(
				"core: policy %s is unsafe under %s placement + %s routing: link %s (%s) carries both classes with overlapping VC ranges (req %s, rep %s)",
				asg.Name(), u.Placement.Scheme, u.Algorithm.Name(), l, o, req, rep)
		}
	}
	return nil
}

// PartialAssigner returns the generalized partial-monopolizing VC assigner
// for the analyzed configuration: every link the analysis shows unmixed is
// fully monopolized; mixed links keep the symmetric split. Safe by
// construction for this placement and routing. On configurations with no
// mixed links at all it degenerates to full monopolizing, and on fully
// mixed ones to the symmetric split.
func (u *LinkUsage) PartialAssigner(vcsPerPort int) vc.Assigner {
	return vc.LinkAware{Total: vcsPerPort, Mixed: u.Mixed}
}

// RecommendPolicy returns the most bandwidth-efficient safe policy for the
// analyzed configuration: full monopolizing when the classes never meet,
// partial monopolizing when they meet only on horizontal links, and the
// asymmetric 1:(V-1) partition otherwise (the asymmetric split needs at
// least 2 VCs; with exactly 2 it degenerates to the symmetric split).
func (u *LinkUsage) RecommendPolicy(vcsPerPort int) config.VCPolicy {
	switch u.Verdict() {
	case FullMonopolizingSafe:
		return config.VCMonopolized
	case PartialMonopolizingSafe:
		return config.VCPartialMonopolized
	default:
		if vcsPerPort > 2 {
			return config.VCAsymmetric
		}
		return config.VCSplit
	}
}

// BuildAssigner returns the VC assigner implementing cfg's policy under the
// analysis u. Partial monopolizing is analysis-driven (per-link); every
// other policy is uniform and ignores u.
func BuildAssigner(u *LinkUsage, n config.NoC) (vc.Assigner, error) {
	if n.VCPolicy == config.VCPartialMonopolized {
		if n.VCsPerPort < 2 {
			return nil, fmt.Errorf("core: partial monopolizing needs >= 2 VCs, have %d", n.VCsPerPort)
		}
		return u.PartialAssigner(n.VCsPerPort), nil
	}
	return vc.NewPolicy(n)
}

// Scheme is a named NoC design point: a placement, a routing algorithm and a
// VC policy. The paper's Figures 7-10 compare schemes.
type Scheme struct {
	Label     string
	Placement config.Placement
	Routing   config.Routing
	VCPolicy  config.VCPolicy
}

// Apply overlays the scheme onto a base configuration.
func (s Scheme) Apply(base config.Config) config.Config {
	base.Placement = s.Placement
	base.NoC.Routing = s.Routing
	base.NoC.VCPolicy = s.VCPolicy
	return base
}

// The paper's principal design points.
var (
	// Baseline: Table 2 — bottom MCs, XY routing, symmetric VC split.
	Baseline = Scheme{"XY (Baseline)", config.PlacementBottom, config.RoutingXY, config.VCSplit}
	// YXSplit and XYYXSplit isolate the routing effect (Figure 7).
	YXSplit   = Scheme{"YX", config.PlacementBottom, config.RoutingYX, config.VCSplit}
	XYYXSplit = Scheme{"XY-YX", config.PlacementBottom, config.RoutingXYYX, config.VCSplit}
	// Monopolized variants (Figure 8).
	XYMonopolized   = Scheme{"XY (Monopolized)", config.PlacementBottom, config.RoutingXY, config.VCMonopolized}
	YXMonopolized   = Scheme{"YX (Monopolized)", config.PlacementBottom, config.RoutingYX, config.VCMonopolized}
	XYYXPartialMono = Scheme{"XY-YX (Partially Monopolized)", config.PlacementBottom, config.RoutingXYYX, config.VCPartialMonopolized}
	// BestProposed is the paper's headline design: bottom placement, YX
	// routing, fully monopolized VCs (89.4% over baseline, 25% over the
	// best prior work in the paper's runs).
	BestProposed = YXMonopolized
)
