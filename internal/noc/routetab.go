package noc

import (
	"sync"

	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
)

// routeTabMaxNodes bounds the dense next-hop table (NumClasses × N² bytes);
// beyond it RC falls back to the algorithm call.
const routeTabMaxNodes = 1024

// routeTable is a next-hop table: tab[cls][cur*N+dst] is the algorithm's
// NextHop at cur toward dst for class cls. It is read-only once built.
type routeTable [packet.NumClasses][]uint8

// routeTabKey names a table by mesh size and algorithm value, so every
// Network of one mesh size and routing — both subnets of a Dual, every
// simulator of a sweep — reads one table. It holds for any algorithm whose
// NextHop depends only on its (comparable) value, as package routing's do.
type routeTabKey struct {
	width, height int
	alg           routing.Algorithm
}

// routeTabCap bounds the process-wide table set. A process meets a few mesh
// sizes and three routings; an evicted table stays with the networks
// holding it, and the next network of its key builds another.
const routeTabCap = 16

var routeTables = struct {
	sync.Mutex
	byKey map[routeTabKey]*sharedRouteTable
	order []routeTabKey
}{byKey: map[routeTabKey]*sharedRouteTable{}}

// sharedRouteTable is one entry of the set, built under its own Once.
type sharedRouteTable struct {
	once sync.Once
	tab  routeTable
}

// nextHopTable returns alg's shared next-hop table on m, built by its first
// caller under the entry's Once so the lock covers only the map; nil slices
// beyond routeTabMaxNodes.
func nextHopTable(m mesh.Mesh, alg routing.Algorithm) routeTable {
	if m.NumNodes() > routeTabMaxNodes {
		return routeTable{}
	}
	k := routeTabKey{m.Width, m.Height, alg}
	t := &routeTables
	t.Lock()
	e, ok := t.byKey[k]
	if !ok {
		if len(t.order) == routeTabCap {
			delete(t.byKey, t.order[0])
			t.order = append(t.order[:0], t.order[1:]...)
		}
		e = &sharedRouteTable{}
		t.byKey[k] = e
		t.order = append(t.order, k)
	}
	t.Unlock()
	e.once.Do(func() { e.tab = buildRouteTable(m, alg) })
	return e.tab
}

// buildRouteTable evaluates alg at every (class, current, destination).
func buildRouteTable(m mesh.Mesh, alg routing.Algorithm) routeTable {
	nn := m.NumNodes()
	var tab routeTable
	for cls := range tab {
		t := make([]uint8, nn*nn)
		for cur := 0; cur < nn; cur++ {
			cc := m.Coord(mesh.NodeID(cur))
			for dst := 0; dst < nn; dst++ {
				t[cur*nn+dst] = uint8(alg.NextHop(cc, m.Coord(mesh.NodeID(dst)), packet.Class(cls)))
			}
		}
		tab[cls] = t
	}
	return tab
}
