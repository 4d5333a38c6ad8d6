package analytic

import (
	"math"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/core"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/placement"
	"gpgpunoc/internal/routing"
)

var m8 = mesh.New(8, 8)

func TestDefaultMixRatioIsTwo(t *testing.T) {
	// Section 3.1.1: "R equals around two".
	if r := DefaultMix().ReplyRequestRatio(); math.Abs(r-2.0) > 1e-12 {
		t.Errorf("reply:request ratio = %v, want 2", r)
	}
}

func TestFlitShares(t *testing.T) {
	shares := DefaultMix().FlitShare()
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}
	// Figure 3: ~63% of flits are read replies.
	if rr := shares[packet.ReadReply]; math.Abs(rr-0.625) > 1e-12 {
		t.Errorf("read-reply share = %v, want 0.625", rr)
	}
}

func TestWriteHeavyMixInverts(t *testing.T) {
	// RAY-like: majority writes makes request traffic exceed reply traffic.
	mix := DefaultMix()
	mix.ReadFrac = 0.35
	if r := mix.ReplyRequestRatio(); r >= 1 {
		t.Errorf("write-heavy mix ratio = %v, want < 1", r)
	}
}

// TestEquation2MatchesEnumeration validates the paper's closed-form request
// coefficients (Eq. 2) against exact route enumeration for XY routing with
// bottom MCs. The paper's derivation counts, for the router at 1-based
// (i, j), how many (source, MC) routes use each output port when every tile
// (including the MC row) sends one request to every MC.
func TestEquation2MatchesEnumeration(t *testing.T) {
	const n = 8
	alg := routing.MustNew(config.RoutingXY)
	counts := make([]int, m8.NumLinkSlots())
	// Paper-style: all N^2 tiles source one request to each of the N MCs on
	// the bottom row.
	for src := mesh.NodeID(0); int(src) < m8.NumNodes(); src++ {
		for mcCol := 0; mcCol < n; mcCol++ {
			dst := m8.ID(mesh.Coord{Row: n - 1, Col: mcCol})
			for _, l := range routing.Path(m8, alg, src, dst, packet.Request) {
				counts[m8.LinkIndex(l)]++
			}
		}
	}
	for row := 1; row <= n; row++ {
		for col := 1; col <= n; col++ {
			id := m8.ID(mesh.Coord{Row: row - 1, Col: col - 1})
			for _, d := range []mesh.Direction{mesh.North, mesh.East, mesh.South, mesh.West} {
				want := Equation2Coefficient(n, row, col, d)
				// Links that would leave the mesh carry no traffic; Eq. 2
				// yields 0 for them by construction (i=1 north, j=N east...).
				if _, ok := m8.Neighbor(m8.Coord(id), d); !ok {
					continue
				}
				got := counts[m8.LinkIndex(mesh.Link{From: id, Dir: d})]
				switch d {
				case mesh.South:
					if got != want {
						t.Errorf("south coefficient at (%d,%d): enumerated %d, Eq.2 %d", row, col, got, want)
					}
				case mesh.East:
					if got != want {
						t.Errorf("east coefficient at (%d,%d): enumerated %d, Eq.2 %d", row, col, got, want)
					}
				case mesh.West:
					if got != want {
						t.Errorf("west coefficient at (%d,%d): enumerated %d, Eq.2 %d", row, col, got, want)
					}
				case mesh.North:
					// Requests to bottom MCs never travel north; Eq. 2's
					// N*(i-1) expression describes the reply network mirror.
					if got != 0 {
						t.Errorf("north request coefficient at (%d,%d) = %d, want 0", row, col, got)
					}
				}
			}
		}
	}
}

// TestBottomXYReplyLoadConcentratesOnBottomRow reproduces the Figure 4(b)
// observation: reply traffic under XY concentrates on bottom-row horizontal
// links, the congestion the proposed schemes eliminate.
func TestBottomXYReplyLoadConcentratesOnBottomRow(t *testing.T) {
	pl := placement.MustNew(config.PlacementBottom, m8, 8)
	ll := core.Analyze(m8, pl, routing.MustNew(config.RoutingXY))
	var bottomMax, coreMax int
	for _, l := range m8.Links() {
		if l.Dir.Orientation() != mesh.Horizontal {
			continue
		}
		c := ll.RouteCount(l, packet.Reply)
		if m8.Coord(l.From).Row == 7 {
			if c > bottomMax {
				bottomMax = c
			}
		} else if c > coreMax {
			coreMax = c
		}
	}
	if coreMax != 0 {
		t.Errorf("XY replies should not use core-row horizontal links, found %d routes", coreMax)
	}
	if bottomMax == 0 {
		t.Error("XY replies should load bottom-row horizontal links")
	}
}

// TestXYYXRemovesBottomRowLoad reproduces the Section 3.2.2 claim: XY-YX
// entirely eliminates traffic on the links between MCs.
func TestXYYXRemovesBottomRowLoad(t *testing.T) {
	pl := placement.MustNew(config.PlacementBottom, m8, 8)
	ll := core.Analyze(m8, pl, routing.MustNew(config.RoutingXYYX))
	for _, l := range m8.Links() {
		if m8.Coord(l.From).Row == 7 && l.Dir.Orientation() == mesh.Horizontal {
			req := ll.RouteCount(l, packet.Request)
			rep := ll.RouteCount(l, packet.Reply)
			if req != 0 || rep != 0 {
				t.Errorf("bottom-row link %v still carries %d req + %d rep routes under XY-YX", l, req, rep)
			}
		}
	}
}

// TestMaxLoadOrdering: the analytic bottleneck shrinks from XY to YX/XY-YX
// on the bottom placement. YX and XY-YX share the same hottest link (the
// reply-laden north links leaving the MC row), so the max load alone ties
// them; the MC-row horizontal load breaks the tie — XY floods it with
// replies, YX loads it with lighter requests, XY-YX removes it entirely,
// predicting the Figure 7 ordering XY < YX < XY-YX.
func TestMaxLoadOrdering(t *testing.T) {
	pl := placement.MustNew(config.PlacementBottom, m8, 8)
	mix := DefaultMix()
	maxLoad := func(rt config.Routing) float64 {
		_, l := MaxLoad(core.Analyze(m8, pl, routing.MustNew(rt)), mix)
		return l
	}
	bottomRowLoad := func(rt config.Routing) float64 {
		ll := core.Analyze(m8, pl, routing.MustNew(rt))
		sum := 0.0
		for _, l := range m8.Links() {
			if m8.Coord(l.From).Row == 7 && l.Dir.Orientation() == mesh.Horizontal {
				sum += FlitLoad(ll, l, mix)
			}
		}
		return sum
	}
	xy, yx, xyyx := maxLoad(config.RoutingXY), maxLoad(config.RoutingYX), maxLoad(config.RoutingXYYX)
	t.Logf("max link load: XY=%.0f YX=%.0f XY-YX=%.0f", xy, yx, xyyx)
	if !(xy > yx && yx >= xyyx) {
		t.Errorf("bottleneck ordering violated: XY=%v YX=%v XY-YX=%v", xy, yx, xyyx)
	}
	bXY, bYX, bXYYX := bottomRowLoad(config.RoutingXY), bottomRowLoad(config.RoutingYX), bottomRowLoad(config.RoutingXYYX)
	t.Logf("MC-row horizontal load: XY=%.0f YX=%.0f XY-YX=%.0f", bXY, bYX, bXYYX)
	if !(bXY > bYX && bYX > 0 && bXYYX == 0) {
		t.Errorf("MC-row load ordering violated: XY=%v YX=%v XY-YX=%v", bXY, bYX, bXYYX)
	}
}

// TestDiamondLowersMaxLoad: distributing MCs lowers the hottest link load
// versus bottom under XY — the Figure 9 motivation.
func TestDiamondLowersMaxLoad(t *testing.T) {
	mix := DefaultMix()
	alg := routing.MustNew(config.RoutingXY)
	_, bottom := MaxLoad(core.Analyze(m8, placement.MustNew(config.PlacementBottom, m8, 8), alg), mix)
	_, diamond := MaxLoad(core.Analyze(m8, placement.MustNew(config.PlacementDiamond, m8, 8), alg), mix)
	if diamond >= bottom {
		t.Errorf("diamond max load %v should be below bottom %v", diamond, bottom)
	}
}

func TestLinkLoadTotalsConserved(t *testing.T) {
	// Total link crossings must equal the sum of route lengths.
	pl := placement.MustNew(config.PlacementBottom, m8, 8)
	alg := routing.MustNew(config.RoutingXY)
	ll := core.Analyze(m8, pl, alg)
	var total, wantTotal int
	for _, l := range m8.Links() {
		total += ll.RouteCount(l, packet.Request) + ll.RouteCount(l, packet.Reply)
	}
	for _, c := range pl.Cores() {
		for i := range pl.MCs {
			wantTotal += 2 * routing.Hops(m8, c, pl.MCNode(i))
		}
	}
	if total != wantTotal {
		t.Errorf("total crossings = %d, want %d", total, wantTotal)
	}
}

func TestAverageHopsEq3(t *testing.T) {
	pl := placement.MustNew(config.PlacementBottom, m8, 8)
	if got, _, _ := pl.AverageHops(); math.Abs(got-6.625) > 1e-12 {
		t.Errorf("bottom average hops = %v, want 6.625", got)
	}
}
