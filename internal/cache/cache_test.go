package cache

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"gpgpunoc/internal/rng"
)

func TestGeometry(t *testing.T) {
	c := New(16<<10, 4, 128) // the Table 2 L1D
	if c.Sets() != 32 || c.Ways() != 4 || c.LineBytes() != 128 {
		t.Errorf("geometry = %d sets/%d ways/%dB", c.Sets(), c.Ways(), c.LineBytes())
	}
	c2 := New(64<<10, 8, 128) // the Table 2 L2 slice
	if c2.Sets() != 64 {
		t.Errorf("L2 sets = %d, want 64", c2.Sets())
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-integral sets")
		}
	}()
	New(1000, 3, 128)
}

func TestNewPanicsOnSetsNotPowerOfTwo(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 24 sets")
		}
	}()
	New(12<<10, 4, 128)
}

func TestHitAfterMiss(t *testing.T) {
	c := New(4096, 4, 128)
	if c.Access(0x1000, false).Hit {
		t.Fatal("cold access hit")
	}
	if !c.Access(0x1000, false).Hit {
		t.Fatal("second access missed")
	}
	// Same line, different offset.
	if !c.Access(0x1040, false).Hit {
		t.Fatal("same-line access missed")
	}
	if c.Hits != 2 || c.Misses != 1 {
		t.Errorf("hits/misses = %d/%d", c.Hits, c.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	c := New(4*128, 4, 128) // one set, four ways
	for i := uint64(0); i < 4; i++ {
		c.Access(i*128*uint64(c.Sets()), false)
	}
	// Touch line 0 to make line 1 the LRU victim.
	c.Access(0, false)
	c.Access(100*128, false) // new line evicts line 1
	if !c.Probe(0) {
		t.Error("recently used line evicted")
	}
	if c.Probe(128 * uint64(c.Sets())) {
		t.Error("LRU line survived")
	}
}

func TestDirtyEviction(t *testing.T) {
	c := New(128, 1, 128) // a single line
	res := c.Access(0, true)
	if res.Hit || res.Eviction {
		t.Fatalf("first write: %+v", res)
	}
	res = c.Access(128, false) // evicts the dirty line
	if !res.Eviction || res.VictimAddr != 0 {
		t.Fatalf("expected dirty eviction of line 0, got %+v", res)
	}
	res = c.Access(256, false) // evicts a CLEAN line: no write-back
	if res.Eviction {
		t.Fatalf("clean eviction reported dirty: %+v", res)
	}
}

func TestVictimAddressReconstruction(t *testing.T) {
	c := New(16<<10, 4, 128)
	addr := uint64(0xabc00)
	c.Access(addr, true)
	// Fill the set to force eviction of addr.
	setStride := uint64(c.Sets() * c.LineBytes())
	var victim uint64
	found := false
	for i := uint64(1); i <= 4; i++ {
		res := c.Access(addr+i*setStride, false)
		if res.Eviction {
			victim, found = res.VictimAddr, true
		}
	}
	if !found {
		t.Fatal("no eviction after overfilling the set")
	}
	if victim != addr&^uint64(127) {
		t.Errorf("victim = %#x, want %#x", victim, addr&^uint64(127))
	}
}

func TestProbeDoesNotTouch(t *testing.T) {
	c := New(2*128, 2, 128) // one set, two ways
	c.Access(0, false)
	c.Access(2*128*uint64(c.Sets()), false) // second way... same set when sets=1
	// Probing line 0 must not refresh LRU: after probing, line 0 is still
	// the LRU victim.
	c.Probe(0)
	c.Access(5*128*uint64(c.Sets()), false)
	if c.Probe(0) {
		t.Error("probe refreshed LRU state")
	}
}

// TestTouchIsProbeThenAccess drives twin caches with one address stream,
// one through Touch and the other through the Probe-then-Access pair Touch
// fuses: hit/miss answers, counters and every later eviction (hence the LRU
// order) must agree, and a Touch miss must leave no trace.
func TestTouchIsProbeThenAccess(t *testing.T) {
	fused, pair := New(1024, 2, 64), New(1024, 2, 64)
	x := uint64(1)
	for i := 0; i < 20000; i++ {
		x = x*6364136223846793005 + 1442695040888963407
		addr := x >> 33 % 48 * 64 // three times the capacity: hits and evictions both common
		if x>>60 < 4 {            // install, so later touches can hit
			if fused.Access(addr, x>>59&1 == 0) != pair.Access(addr, x>>59&1 == 0) {
				t.Fatalf("op %d: Access diverged (LRU order differs)", i)
			}
			continue
		}
		hit := pair.Probe(addr)
		if hit {
			pair.Access(addr, false)
		}
		if fused.Touch(addr) != hit || fused.Hits != pair.Hits || fused.Misses != pair.Misses {
			t.Fatalf("op %d: Touch(%#x) vs Probe+Access: hit %v, counters %d/%d vs %d/%d",
				i, addr, hit, fused.Hits, fused.Misses, pair.Hits, pair.Misses)
		}
	}
	if fused.Hits < 1000 {
		t.Fatalf("stream produced only %d hits", fused.Hits)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(4096, 4, 128)
	c.Access(0x80, true)
	present, dirty := c.Invalidate(0x80)
	if !present || !dirty {
		t.Errorf("invalidate = %v,%v want true,true", present, dirty)
	}
	if c.Probe(0x80) {
		t.Error("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x80)
	if present {
		t.Error("double invalidate reported present")
	}
}

func TestMissRate(t *testing.T) {
	c := New(4096, 4, 128)
	c.Access(0, false)
	c.Access(0, false)
	c.Access(0, false)
	c.Access(4096*10, false)
	if mr := c.MissRate(); mr != 0.5 {
		t.Errorf("miss rate = %v, want 0.5", mr)
	}
}

// TestCacheNeverExceedsCapacityProperty: after any access sequence, the
// number of resident lines never exceeds sets*ways.
func TestCacheNeverExceedsCapacityProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New(1024, 2, 64) // 16 lines
		resident := map[uint64]bool{}
		for _, a := range addrs {
			addr := uint64(a) * 64
			res := c.Access(addr, a%3 == 0)
			line := addr &^ 63
			resident[line] = true
			if res.Eviction {
				delete(resident, res.VictimAddr)
			}
			if !c.Probe(addr) {
				return false // just-installed line must be present
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMSHRMerge(t *testing.T) {
	m := NewMSHR(4)
	if got := m.Allocate(0x100, 1); got != Primary {
		t.Fatalf("first allocate = %v", got)
	}
	if got := m.Allocate(0x100, 2); got != Merged {
		t.Fatalf("second allocate = %v", got)
	}
	if n, ok := m.Lookup(0x100); !ok || n != 2 || m.Occupancy() != 1 {
		t.Error("lookup/occupancy wrong after merge")
	}
	waiters := m.Fill(0x100)
	if len(waiters) != 2 || waiters[0] != 1 || waiters[1] != 2 {
		t.Errorf("waiters = %v", waiters)
	}
	if _, ok := m.Lookup(0x100); ok || m.Occupancy() != 0 {
		t.Error("entry survived fill")
	}
}

func TestMSHRCapacity(t *testing.T) {
	m := NewMSHR(2)
	m.Allocate(0x100, 0)
	m.Allocate(0x200, 0)
	if !m.Full() {
		t.Error("MSHR should be full")
	}
	if got := m.Allocate(0x300, 0); got != Stall {
		t.Errorf("over-capacity allocate = %v, want Stall", got)
	}
	// Merging into an existing entry still works at capacity.
	if got := m.Allocate(0x200, 1); got != Merged {
		t.Errorf("merge at capacity = %v, want Merged", got)
	}
}

func TestMSHRMergeLimit(t *testing.T) {
	m := NewMSHR(4)
	m.MaxMerged = 2
	m.Allocate(0x100, 0)
	m.Allocate(0x100, 1)
	if got := m.Allocate(0x100, 2); got != Stall {
		t.Errorf("over-merge = %v, want Stall", got)
	}
}

func TestMSHRFillPanicsWithoutEntry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("fill without entry did not panic")
		}
	}()
	NewMSHR(2).Fill(0xdead)
}

// mapMSHR is the reference model for TestMSHRMatchesMapReference: the MSHR
// file as a map from line address to its waiters, each list made on demand.
type mapMSHR struct {
	entries   map[uint64][]int
	capacity  int
	maxMerged int
}

func (r *mapMSHR) allocate(lineAddr uint64, warp int) Outcome {
	if waiters, ok := r.entries[lineAddr]; ok {
		if len(waiters) >= r.maxMerged {
			return Stall
		}
		r.entries[lineAddr] = append(waiters, warp)
		return Merged
	}
	if len(r.entries) >= r.capacity {
		return Stall
	}
	r.entries[lineAddr] = []int{warp}
	return Primary
}

// fill returns nil, false for a line with no entry.
func (r *mapMSHR) fill(lineAddr uint64) ([]int, bool) {
	waiters, ok := r.entries[lineAddr]
	delete(r.entries, lineAddr)
	return waiters, ok
}

// TestMSHRMatchesMapReference: the fixed table is the map-based MSHR file
// it replaced. Over capacities 1, 4 and 32 and MaxMerged 1, 2 and 8, seeded
// random Allocate, Lookup, Fill and Reset calls on a few more lines than the
// file holds agree with the map model call by call: every outcome, waiter
// count, Occupancy and Full, and each Fill's warps in merge order. A Fill of
// an absent line panics, a MaxMerged raised above the row width panics
// with the package prefix, and an Allocate+Fill pair allocates nothing.
func TestMSHRMatchesMapReference(t *testing.T) {
	for _, capacity := range []int{1, 4, 32} {
		for _, merged := range []int{1, 2, 8} {
			m := NewMSHR(capacity)
			m.MaxMerged = merged
			ref := &mapMSHR{entries: map[uint64][]int{}, capacity: capacity, maxMerged: merged}
			r := rng.New(uint64(capacity*16 + merged))
			lines := uint64(capacity + 3)
			for i := 0; i < 40_000; i++ {
				line := r.Uint64n(lines) * 128
				switch k := r.Intn(100); {
				case k < 55:
					warp := r.Intn(48)
					if got, want := m.Allocate(line, warp), ref.allocate(line, warp); got != want {
						t.Fatalf("cap %d merged %d call %d: Allocate(%#x, %d) = %v, model %v", capacity, merged, i, line, warp, got, want)
					}
				case k < 70:
					gn, gok := m.Lookup(line)
					if want, wok := ref.entries[line]; gn != len(want) || gok != wok {
						t.Fatalf("cap %d merged %d call %d: Lookup(%#x) = %d, %v, model %d, %v", capacity, merged, i, line, gn, gok, len(want), wok)
					}
				case k < 99:
					want, ok := ref.fill(line)
					if !ok {
						continue
					}
					if got := m.Fill(line); !slices.Equal(got, want) {
						t.Fatalf("cap %d merged %d call %d: Fill(%#x) = %v, model %v", capacity, merged, i, line, got, want)
					}
				default:
					m.Reset()
					clear(ref.entries)
				}
				if m.Occupancy() != len(ref.entries) || m.Full() != (len(ref.entries) >= capacity) {
					t.Fatalf("cap %d merged %d call %d: occupancy %d full %v, model %d of %d",
						capacity, merged, i, m.Occupancy(), m.Full(), len(ref.entries), capacity)
				}
			}
		}
	}

	t.Run("FillAbsentPanics", func(t *testing.T) {
		m := NewMSHR(4)
		m.Allocate(0x100, 1)
		defer func() {
			if recover() == nil {
				t.Fatal("Fill of a line with no entry did not panic")
			}
		}()
		m.Fill(0x200)
	})
	t.Run("MaxMergedAboveWidthPanics", func(t *testing.T) {
		m := NewMSHR(4)
		m.MaxMerged = mergeWidth + 1
		defer func() {
			r := recover()
			if msg, ok := r.(string); !ok || !strings.HasPrefix(msg, "cache: ") {
				t.Fatalf("MaxMerged %d above the row width: recovered %v, want a cache: panic", m.MaxMerged, r)
			}
		}()
		for w := 0; w <= mergeWidth; w++ {
			m.Allocate(0x100, w)
		}
	})
	t.Run("NoAllocs", func(t *testing.T) {
		m := NewMSHR(32)
		if a := testing.AllocsPerRun(100, func() {
			m.Allocate(0x100, 1)
			m.Fill(0x100)
		}); a != 0 {
			t.Errorf("an Allocate+Fill pair allocates %.0f times, want 0", a)
		}
	})
}

// refLRU is the reference model for TestCacheMatchesReferenceLRU: each set
// a list of resident line addresses, most recently used first, and a map
// of which resident lines are dirty.
type refLRU struct {
	sets, ways, lineBytes uint64
	lists                 [][]uint64
	dirty                 map[uint64]bool
	hits, misses          int64
}

func newRefLRU(sets, ways, lineBytes int) *refLRU {
	return &refLRU{sets: uint64(sets), ways: uint64(ways), lineBytes: uint64(lineBytes),
		lists: make([][]uint64, sets), dirty: map[uint64]bool{}}
}

// take removes addr's line from its set's list, reporting whether it was
// resident.
func (r *refLRU) take(addr uint64) (set, la uint64, ok bool) {
	la = addr / r.lineBytes
	set = la % r.sets
	for i, l := range r.lists[set] {
		if l == la {
			r.lists[set] = append(r.lists[set][:i], r.lists[set][i+1:]...)
			return set, la, true
		}
	}
	return set, la, false
}

func (r *refLRU) touch(addr uint64) bool {
	set, la, ok := r.take(addr)
	if ok {
		r.lists[set] = append([]uint64{la}, r.lists[set]...)
		r.hits++
	}
	return ok
}

func (r *refLRU) access(addr uint64, isWrite bool) (res Result) {
	set, la, ok := r.take(addr)
	if res.Hit = ok; ok {
		r.hits++
	} else if r.misses++; uint64(len(r.lists[set])) == r.ways {
		v := r.lists[set][r.ways-1]
		r.lists[set] = r.lists[set][:r.ways-1]
		if r.dirty[v] {
			res = Result{Eviction: true, VictimAddr: v * r.lineBytes}
		}
		delete(r.dirty, v)
	}
	r.dirty[la] = r.dirty[la] || isWrite
	r.lists[set] = append([]uint64{la}, r.lists[set]...)
	return res
}

func (r *refLRU) invalidate(addr uint64) (present, dirty bool) {
	_, la, ok := r.take(addr)
	dirty = r.dirty[la]
	delete(r.dirty, la)
	return ok, dirty
}

// TestCacheMatchesReferenceLRU: the shift-and-mask index and the
// most-recent-line Touch are exact. Over the Table 2 geometries, a single
// set and a direct-mapped cache, a random mix of Touch, read and write
// Access, Invalidate and Reset calls on streams that repeat lines, walk
// them in order and jump at random agrees, call by call, with a list-based
// LRU model: every hit, eviction, victim address, Probe, Hits and Misses.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	for _, g := range []struct {
		name                   string
		bytes, ways, lineBytes int
	}{
		{"L1D", 16 << 10, 4, 128},
		{"L1I", 2 << 10, 4, 128},
		{"L2", 64 << 10, 8, 128},
		{"one set", 4 * 128, 4, 128},
		{"one way", 4 << 10, 1, 128},
	} {
		c, ref := New(g.bytes, g.ways, g.lineBytes), newRefLRU(g.bytes/(g.ways*g.lineBytes), g.ways, g.lineBytes)
		r := rng.New(uint64(g.bytes + g.ways))
		span := uint64(4 * g.bytes) // addresses over four capacities: evictions
		var addr uint64
		recent := make([]uint64, 8)
		for i := 0; i < 120_000; i++ {
			switch k := r.Intn(10); {
			case k < 4: // repeat a recent address
				addr = recent[r.Intn(len(recent))]
			case k < 7: // walk in order, a quarter line at a time
				addr = (addr + uint64(g.lineBytes)/4) % span
			default: // jump
				addr = r.Uint64n(span)
			}
			recent[r.Intn(len(recent))] = addr
			var op string
			switch k := r.Intn(10_000); {
			case k < 4_000:
				op = "Touch"
				if got, want := c.Touch(addr), ref.touch(addr); got != want {
					t.Fatalf("%s call %d: Touch(%#x) = %v, model %v", g.name, i, addr, got, want)
				}
			case k < 9_000:
				op = "Access"
				w := k >= 6_500 // a write
				if got, want := c.Access(addr, w), ref.access(addr, w); got != want {
					t.Fatalf("%s call %d: Access(%#x, %v) = %+v, model %+v", g.name, i, addr, w, got, want)
				}
			case k < 9_998:
				op = "Invalidate"
				gp, gd := c.Invalidate(addr)
				wp, wd := ref.invalidate(addr)
				if gp != wp || gd != wd {
					t.Fatalf("%s call %d: Invalidate(%#x) = %v, %v, model %v, %v", g.name, i, addr, gp, gd, wp, wd)
				}
			default:
				op = "Reset"
				c.Reset()
				ref = newRefLRU(c.Sets(), c.Ways(), c.LineBytes())
			}
			resident := slices.Contains(ref.lists[addr/uint64(g.lineBytes)%uint64(c.Sets())], addr/uint64(g.lineBytes))
			if c.Hits != ref.hits || c.Misses != ref.misses || c.Probe(addr) != resident {
				t.Fatalf("%s call %d (%s %#x): hits/misses %d/%d, resident %v; model %d/%d, %v",
					g.name, i, op, addr, c.Hits, c.Misses, c.Probe(addr), ref.hits, ref.misses, resident)
			}
		}
	}
}
