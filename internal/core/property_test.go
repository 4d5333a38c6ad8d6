package core

import (
	"testing"
	"testing/quick"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// TestSafetyInvariantsProperty checks, over random placements and routings,
// the three safety invariants of the analysis:
//  1. the symmetric split always passes (disjoint everywhere);
//  2. full monopolizing passes exactly when no link mixes classes;
//  3. the analysis-driven partial assigner always passes (safe by
//     construction).
func TestSafetyInvariantsProperty(t *testing.T) {
	placements := []config.Placement{
		config.PlacementBottom, config.PlacementTop, config.PlacementEdge,
		config.PlacementTopBottom, config.PlacementDiamond,
	}
	routings := config.Routings()

	f := func(pIdx, rIdx uint8, vcsRaw uint8) bool {
		pl := placements[int(pIdx)%len(placements)]
		rt := routings[int(rIdx)%len(routings)]
		vcs := 2 + int(vcsRaw)%3*2 // 2, 4 or 6

		p, err := placement.New(pl, m8, 8)
		if err != nil {
			return false
		}
		u := Analyze(m8, p, routing.MustNew(rt))

		nocCfg := config.Default().NoC
		nocCfg.VCsPerPort = vcs

		nocCfg.VCPolicy = config.VCSplit
		if u.CheckPolicy(vc.MustNewPolicy(nocCfg)) != nil {
			return false
		}

		nocCfg.VCPolicy = config.VCMonopolized
		monoSafe := u.CheckPolicy(vc.MustNewPolicy(nocCfg)) == nil
		if monoSafe != (len(u.MixedLinks()) == 0) {
			return false
		}

		return u.CheckPolicy(u.PartialAssigner(vcs)) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAnalysisMatchesRouteEnumeration: UsedBy must agree with a direct
// re-enumeration of routes for sampled (core, MC) pairs.
func TestAnalysisMatchesRouteEnumeration(t *testing.T) {
	p := placement.MustNew(config.PlacementDiamond, m8, 8)
	alg := routing.MustNew(config.RoutingXYYX)
	u := Analyze(m8, p, alg)

	for _, coreID := range p.Cores()[:10] {
		for i := range p.MCs {
			mcID := p.MCNode(i)
			for _, l := range routing.AppendPath(nil, m8, alg, coreID, mcID, packet.Request) {
				if !u.UsedBy(l, packet.Request) {
					t.Fatalf("analysis misses request link %v", l)
				}
			}
			for _, l := range routing.AppendPath(nil, m8, alg, mcID, coreID, packet.Reply) {
				if !u.UsedBy(l, packet.Reply) {
					t.Fatalf("analysis misses reply link %v", l)
				}
			}
		}
	}
}

// TestPartialAssignerDegenerations: on a no-mixing configuration the
// partial assigner grants full ranges everywhere (it IS full monopolizing);
// on mixed links it splits.
func TestPartialAssignerDegenerations(t *testing.T) {
	clean := Analyze(m8, placement.MustNew(config.PlacementBottom, m8, 8), routing.MustNew(config.RoutingXY))
	asg := clean.PartialAssigner(2)
	for _, l := range m8.Links() {
		r := asg.RangeFor(l, l.Dir.Orientation(), packet.Request)
		if r != (vc.Range{Lo: 0, Hi: 2}) {
			t.Fatalf("unmixed link %v restricted to %s", l, r)
		}
	}

	mixed := Analyze(m8, placement.MustNew(config.PlacementDiamond, m8, 8), routing.MustNew(config.RoutingXY))
	sawSplit := false
	for _, l := range m8.Links() {
		if !mixed.Mixed(l) {
			continue
		}
		req := mixed.PartialAssigner(2).RangeFor(l, l.Dir.Orientation(), packet.Request)
		rep := mixed.PartialAssigner(2).RangeFor(l, l.Dir.Orientation(), packet.Reply)
		if req.Overlaps(rep) {
			t.Fatalf("mixed link %v not split: req %s rep %s", l, req, rep)
		}
		sawSplit = true
	}
	if !sawSplit {
		t.Fatal("diamond+XY produced no mixed links; analysis broken")
	}
}

// TestBuildAssigner covers the policy-construction helper.
func TestBuildAssigner(t *testing.T) {
	u := Analyze(m8, placement.MustNew(config.PlacementBottom, m8, 8), routing.MustNew(config.RoutingXY))
	n := config.Default().NoC

	n.VCPolicy = config.VCPartialMonopolized
	asg, err := BuildAssigner(u, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := asg.(vc.LinkAware); !ok {
		t.Errorf("partial policy built %T, want vc.LinkAware", asg)
	}

	n.VCPolicy = config.VCSplit
	asg, err = BuildAssigner(u, n)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := asg.(vc.Policy); !ok {
		t.Errorf("split policy built %T, want vc.Policy", asg)
	}

	n.VCPolicy = config.VCPartialMonopolized
	n.VCsPerPort = 1
	if _, err := BuildAssigner(u, n); err == nil {
		t.Error("partial with 1 VC accepted")
	}
}
