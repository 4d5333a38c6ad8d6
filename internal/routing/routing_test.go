package routing

import (
	"testing"
	"testing/quick"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

var m8 = mesh.New(8, 8)

func TestNewKnownAlgorithms(t *testing.T) {
	for _, name := range config.Routings() {
		a, err := New(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Name() != name {
			t.Errorf("Name() = %s, want %s", a.Name(), name)
		}
	}
	if _, err := New("adaptive"); err == nil {
		t.Error("unknown algorithm must fail")
	}
}

func TestXYOrder(t *testing.T) {
	a := MustNew(config.RoutingXY)
	// From (0,0) to (7,7): X must be exhausted before Y moves.
	path := AppendPath(nil, m8, a, m8.ID(mesh.Coord{Row: 0, Col: 0}), m8.ID(mesh.Coord{Row: 7, Col: 7}), packet.Request)
	if len(path) != 14 {
		t.Fatalf("path length = %d, want 14", len(path))
	}
	for i := 0; i < 7; i++ {
		if path[i].Dir != mesh.East {
			t.Errorf("hop %d = %s, want E", i, path[i].Dir)
		}
	}
	for i := 7; i < 14; i++ {
		if path[i].Dir != mesh.South {
			t.Errorf("hop %d = %s, want S", i, path[i].Dir)
		}
	}
}

func TestYXOrder(t *testing.T) {
	a := MustNew(config.RoutingYX)
	path := AppendPath(nil, m8, a, m8.ID(mesh.Coord{Row: 0, Col: 0}), m8.ID(mesh.Coord{Row: 7, Col: 7}), packet.Request)
	if len(path) != 14 {
		t.Fatalf("path length = %d, want 14", len(path))
	}
	for i := 0; i < 7; i++ {
		if path[i].Dir != mesh.South {
			t.Errorf("hop %d = %s, want S", i, path[i].Dir)
		}
	}
	for i := 7; i < 14; i++ {
		if path[i].Dir != mesh.East {
			t.Errorf("hop %d = %s, want E", i, path[i].Dir)
		}
	}
}

func TestXYYXIsClassDependent(t *testing.T) {
	a := MustNew(config.RoutingXYYX)
	src, dst := m8.ID(mesh.Coord{Row: 2, Col: 1}), m8.ID(mesh.Coord{Row: 5, Col: 6})
	req := AppendPath(nil, m8, a, src, dst, packet.Request)
	rep := AppendPath(nil, m8, a, src, dst, packet.Reply)
	if req[0].Dir != mesh.East {
		t.Errorf("request first hop = %s, want E (XY)", req[0].Dir)
	}
	if rep[0].Dir != mesh.South {
		t.Errorf("reply first hop = %s, want S (YX)", rep[0].Dir)
	}
}

func TestNextHopAtDestination(t *testing.T) {
	for _, name := range config.Routings() {
		a := MustNew(name)
		for _, cls := range []packet.Class{packet.Request, packet.Reply} {
			if d := a.NextHop(mesh.Coord{Row: 3, Col: 3}, mesh.Coord{Row: 3, Col: 3}, cls); d != mesh.Local {
				t.Errorf("%s/%s at destination: %s, want Local", name, cls, d)
			}
		}
	}
}

// TestPathsAreMinimal checks every algorithm produces Manhattan-length paths
// for every pair and class.
func TestPathsAreMinimal(t *testing.T) {
	for _, name := range config.Routings() {
		a := MustNew(name)
		for src := mesh.NodeID(0); int(src) < m8.NumNodes(); src++ {
			for dst := mesh.NodeID(0); int(dst) < m8.NumNodes(); dst++ {
				for _, cls := range []packet.Class{packet.Request, packet.Reply} {
					path := AppendPath(nil, m8, a, src, dst, cls)
					if len(path) != Hops(m8, src, dst) {
						t.Fatalf("%s %d->%d (%s): %d hops, want %d",
							name, src, dst, cls, len(path), Hops(m8, src, dst))
					}
				}
			}
		}
	}
}

// TestPathsAreConnected checks each hop moves to the next link's source and
// ends at the destination.
func TestPathsAreConnected(t *testing.T) {
	f := func(s, d uint16) bool {
		src := mesh.NodeID(int(s) % m8.NumNodes())
		dst := mesh.NodeID(int(d) % m8.NumNodes())
		for _, name := range config.Routings() {
			a := MustNew(name)
			cur := src
			for _, l := range AppendPath(nil, m8, a, src, dst, packet.Reply) {
				if l.From != cur {
					return false
				}
				n, ok := m8.Neighbor(m8.Coord(cur), l.Dir)
				if !ok {
					return false
				}
				cur = m8.ID(n)
			}
			if cur != dst {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestDimensionOrderTurnDiscipline verifies XY never turns from Y to X and YX
// never turns from X to Y — the property that makes them deadlock-free.
func TestDimensionOrderTurnDiscipline(t *testing.T) {
	checkNoTurn := func(name config.Routing, cls packet.Class, from, to mesh.Orientation) {
		a := MustNew(name)
		for src := mesh.NodeID(0); int(src) < m8.NumNodes(); src++ {
			for dst := mesh.NodeID(0); int(dst) < m8.NumNodes(); dst++ {
				path := AppendPath(nil, m8, a, src, dst, cls)
				for i := 1; i < len(path); i++ {
					if path[i-1].Dir.Orientation() == from && path[i].Dir.Orientation() == to {
						t.Fatalf("%s/%s: forbidden %s->%s turn on %d->%d",
							name, cls, from, to, src, dst)
					}
				}
			}
		}
	}
	checkNoTurn(config.RoutingXY, packet.Request, mesh.Vertical, mesh.Horizontal)
	checkNoTurn(config.RoutingYX, packet.Request, mesh.Horizontal, mesh.Vertical)
	checkNoTurn(config.RoutingXYYX, packet.Request, mesh.Vertical, mesh.Horizontal)
	checkNoTurn(config.RoutingXYYX, packet.Reply, mesh.Horizontal, mesh.Vertical)
}

func TestPathEmptyForSelf(t *testing.T) {
	a := MustNew(config.RoutingXY)
	if p := AppendPath(nil, m8, a, 5, 5, packet.Request); len(p) != 0 {
		t.Errorf("self path has %d links, want 0", len(p))
	}
}
