package noc

import (
	"fmt"
	"sync"
	"testing"
	"unsafe"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// sameArray reports whether two tables are one backing array.
func sameArray(a, b []uint8) bool { return unsafe.SliceData(a) == unsafe.SliceData(b) }

// checkNextHops compares tab with alg.NextHop at every (class, current,
// destination) of m.
func checkNextHops(t *testing.T, name string, m mesh.Mesh, alg routing.Algorithm, tab routeTable) {
	t.Helper()
	nn := m.NumNodes()
	for cls := packet.Class(0); cls < packet.NumClasses; cls++ {
		if len(tab[cls]) != nn*nn {
			t.Fatalf("%s %s: table holds %d entries, want %d", name, cls, len(tab[cls]), nn*nn)
		}
		for cur := 0; cur < nn; cur++ {
			for dst := 0; dst < nn; dst++ {
				want := alg.NextHop(m.Coord(mesh.NodeID(cur)), m.Coord(mesh.NodeID(dst)), cls)
				if got := mesh.Direction(tab[cls][cur*nn+dst]); got != want {
					t.Fatalf("%s %s: %d -> %d routes %s, algorithm %s", name, cls, cur, dst, got, want)
				}
			}
		}
	}
}

// TestRouteTableShared: two networks of one mesh size and routing, and both
// subnets of a Dual, read one next-hop table, and that table is the
// algorithm at every (class, current, destination).
func TestRouteTableShared(t *testing.T) {
	for _, w := range []int{4, 8, 16} {
		for _, r := range config.Routings() {
			name := fmt.Sprintf("%dx%d/%s", w, w, r)
			cfg := config.Default().NoC
			cfg.Width, cfg.Height, cfg.Routing = w, w, r
			alg := routing.MustNew(r)
			a := New(cfg, alg, vc.MustNewPolicy(cfg))
			b := New(cfg, routing.MustNew(r), vc.MustNewPolicy(cfg))
			d := NewDual(cfg, alg)
			tabs := append(RouteTables(a), RouteTables(b)...)
			tabs = append(tabs, RouteTables(d)...)
			for i, tab := range tabs[1:] {
				for cls := range tab {
					if !sameArray(tab[cls], tabs[0][cls]) {
						t.Errorf("%s: network %d builds its own %s table", name, i+1, packet.Class(cls))
					}
				}
			}
			checkNextHops(t, name, a.Mesh(), alg, tabs[0])
			a.Close()
			b.Close()
			d.Close()
		}
	}
}

// TestRouteTableEviction: past routeTabCap mesh sizes the oldest table
// leaves the set; its next network builds a new one, equal to the algorithm.
func TestRouteTableEviction(t *testing.T) {
	alg := routing.MustNew(config.RoutingXYYX)
	build := func(w int) *Network {
		cfg := config.Default().NoC
		cfg.Width, cfg.Height, cfg.Routing = w, 3, config.RoutingXYYX
		return New(cfg, alg, vc.MustNewPolicy(cfg))
	}
	first := RouteTables(build(2))[0]
	for w := 3; w < 3+routeTabCap; w++ {
		build(w)
	}
	again := build(2)
	if tab := RouteTables(again)[0]; sameArray(tab[packet.Request], first[packet.Request]) {
		t.Fatalf("a table evicted %d sizes ago is still shared", routeTabCap)
	} else {
		checkNextHops(t, "2x3 after eviction", again.Mesh(), alg, tab)
	}
}

// TestRouteTableConcurrentFirstUse: networks of a key no one has built yet,
// made on several goroutines at once, get one table, built once.
func TestRouteTableConcurrentFirstUse(t *testing.T) {
	cfg := config.Default().NoC
	cfg.Width, cfg.Height, cfg.Routing = 7, 5, config.RoutingYX
	alg := routing.MustNew(cfg.Routing)
	nets := make([]*Network, 4)
	var wg sync.WaitGroup
	for i := range nets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nets[i] = New(cfg, alg, vc.MustNewPolicy(cfg))
		}()
	}
	wg.Wait()
	first := RouteTables(nets[0])[0]
	for i, n := range nets[1:] {
		for cls, tab := range RouteTables(n)[0] {
			if !sameArray(tab, first[cls]) {
				t.Errorf("network %d built its own %s table", i+1, packet.Class(cls))
			}
		}
	}
	checkNextHops(t, "7x5/yx", nets[0].Mesh(), alg, first)
}
