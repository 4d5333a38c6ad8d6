// Package routing implements the dimension-order routing algorithms studied
// in Section 3.2.2: XY, YX, and the class-dependent XY-YX scheme that routes
// request packets XY and reply packets YX.
//
// All three are minimal, deterministic and deadlock-free at the routing level
// on a mesh (dimension-order routing admits no cyclic channel dependency
// within a traffic class). Protocol deadlock between the request and reply
// classes is the concern of package vc and package core.
package routing

import (
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
)

// Algorithm computes the output port a packet takes at each router.
type Algorithm interface {
	// Name identifies the algorithm in configurations and reports.
	Name() config.Routing
	// NextHop returns the output direction at cur for a packet of class cls
	// headed to dst. It returns mesh.Local when cur == dst.
	NextHop(cur, dst mesh.Coord, cls packet.Class) mesh.Direction
}

// New returns the named algorithm.
func New(name config.Routing) (Algorithm, error) {
	switch name {
	case config.RoutingXY:
		return xy{}, nil
	case config.RoutingYX:
		return yx{}, nil
	case config.RoutingXYYX:
		return xyyx{}, nil
	default:
		return nil, fmt.Errorf("routing: unknown algorithm %q", name)
	}
}

// MustNew is New panicking on error, for fixed experiment tables.
func MustNew(name config.Routing) Algorithm {
	a, err := New(name)
	if err != nil {
		panic(err)
	}
	return a
}

func stepX(cur, dst mesh.Coord) (mesh.Direction, bool) {
	switch {
	case dst.Col > cur.Col:
		return mesh.East, true
	case dst.Col < cur.Col:
		return mesh.West, true
	default:
		return mesh.Local, false
	}
}

func stepY(cur, dst mesh.Coord) (mesh.Direction, bool) {
	switch {
	case dst.Row > cur.Row:
		return mesh.South, true
	case dst.Row < cur.Row:
		return mesh.North, true
	default:
		return mesh.Local, false
	}
}

type xy struct{}

func (xy) Name() config.Routing { return config.RoutingXY }

func (xy) NextHop(cur, dst mesh.Coord, _ packet.Class) mesh.Direction {
	if d, ok := stepX(cur, dst); ok {
		return d
	}
	if d, ok := stepY(cur, dst); ok {
		return d
	}
	return mesh.Local
}

type yx struct{}

func (yx) Name() config.Routing { return config.RoutingYX }

func (yx) NextHop(cur, dst mesh.Coord, _ packet.Class) mesh.Direction {
	if d, ok := stepY(cur, dst); ok {
		return d
	}
	if d, ok := stepX(cur, dst); ok {
		return d
	}
	return mesh.Local
}

type xyyx struct{}

func (xyyx) Name() config.Routing { return config.RoutingXYYX }

func (xyyx) NextHop(cur, dst mesh.Coord, cls packet.Class) mesh.Direction {
	if cls == packet.Request {
		return xy{}.NextHop(cur, dst, cls)
	}
	return yx{}.NextHop(cur, dst, cls)
}

// AppendPath appends the directed links a packet of class cls traverses
// from src to dst under a, excluding the local injection/ejection hops, to
// links and returns the extended slice; it appends nothing when src == dst.
// A caller walking many routes reuses one buffer; AppendPath(nil, ...)
// returns a fresh route.
func AppendPath(links []mesh.Link, m mesh.Mesh, a Algorithm, src, dst mesh.NodeID, cls packet.Class) []mesh.Link {
	cur := m.Coord(src)
	dstC := m.Coord(dst)
	for cur != dstC {
		d := a.NextHop(cur, dstC, cls)
		if d == mesh.Local {
			break
		}
		links = append(links, mesh.Link{From: m.ID(cur), Dir: d})
		next, ok := m.Neighbor(cur, d)
		if !ok {
			panic(fmt.Sprintf("routing: %s routed off-mesh at %v toward %v", a.Name(), cur, dstC))
		}
		cur = next
	}
	return links
}

// Hops returns the number of inter-router hops between src and dst; minimal
// dimension-order routing always takes the Manhattan distance.
func Hops(m mesh.Mesh, src, dst mesh.NodeID) int {
	return m.HopDistance(m.Coord(src), m.Coord(dst))
}
