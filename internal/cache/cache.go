// Package cache implements the set-associative write-back caches of the
// simulated GPGPU (Table 2: 16KB 4-way L1 data, 2KB 4-way L1 instruction,
// 64KB 8-way L2 slice per MC) and the MSHR file that tracks outstanding
// misses.
//
// The cache is a timing/behaviour model: it tracks tags, dirty bits and LRU
// state, not data. Lookups report hit/miss and dirty evictions so the caller
// can generate the write-back traffic the paper's write-back policy implies.
package cache

import (
	"fmt"
	"math/bits"
)

// line is one cache way's state.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp; larger is more recent
}

// Cache is a set-associative write-back cache with LRU replacement.
type Cache struct {
	ways  int
	lines []line // sets*ways, row-major by set
	stamp uint64
	// A line address is addr>>lineShift: its set the low setShift bits, its tag the rest.
	lineShift, setShift uint
	setMask             uint64
	// mru is the line address of the line stamped last, plus one (0: none).
	// It holds the highest stamp already, so a Touch of it only counts the hit.
	mru uint64

	Hits   int64
	Misses int64
}

// New builds a cache of totalBytes capacity with the given associativity and
// line size. It panics if the geometry is inconsistent (configuration is
// validated upstream; geometry bugs are programming errors).
func New(totalBytes, ways, lineBytes int) *Cache {
	return &NewSlab(1, totalBytes, ways, lineBytes)[0]
}

// NewSlab builds n caches of one geometry in two allocations, their lines cut
// from one array: element i is what New returns, for a caller that builds many
// at once and hands each out by pointer.
func NewSlab(n, totalBytes, ways, lineBytes int) []Cache {
	if totalBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	sets := totalBytes / lineBytes / ways
	if sets == 0 || sets*ways*lineBytes != totalBytes || sets&(sets-1) != 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache: %dB/%d-way/%dB lines is not a power-of-two number of sets of power-of-two lines",
			totalBytes, ways, lineBytes))
	}
	per := sets * ways
	lines, cs := make([]line, n*per), make([]Cache, n)
	for i := range cs {
		cs[i] = Cache{
			ways:      ways,
			lines:     lines[i*per : (i+1)*per : (i+1)*per],
			lineShift: uint(bits.TrailingZeros(uint(lineBytes))),
			setShift:  uint(bits.TrailingZeros(uint(sets))),
			setMask:   uint64(sets - 1),
		}
	}
	return cs
}

// Reset empties the cache — every line invalid, LRU stamps and counters
// zero — keeping its storage. A cache never accessed since New or the last
// Reset (stamp 0: every access stamps) is empty already.
func (c *Cache) Reset() {
	if c.stamp == 0 {
		return
	}
	clear(c.lines)
	c.stamp, c.mru, c.Hits, c.Misses = 0, 0, 0, 0
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return int(c.setMask) + 1 }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return 1 << c.lineShift }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	la := addr >> c.lineShift
	return int(la & c.setMask), la >> c.setShift
}

// Result describes the outcome of an Access.
type Result struct {
	Hit bool
	// Eviction reports that installing the line evicted a dirty victim
	// whose write-back the caller must emit.
	Eviction   bool
	VictimAddr uint64 // line-aligned address of the dirty victim
}

// Probe reports whether addr hits without updating any state.
func (c *Cache) Probe(addr uint64) bool {
	set, tag := c.index(addr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[set*c.ways+w]
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Touch is the read-hit half of Access in one set scan: on a hit it leaves
// the same LRU order and counters as Access(addr, false) and returns true (a
// Touch of the line stamped last only counts the hit); on a miss it changes
// nothing — no counter, no install — so a caller that must check resources
// before allocating can still back out.
func (c *Cache) Touch(addr uint64) bool {
	mru := addr>>c.lineShift + 1
	if mru == c.mru {
		c.Hits++
		return true
	}
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			c.stamp++
			l.lru = c.stamp
			c.mru = mru
			c.Hits++
			return true
		}
	}
	return false
}

// Access performs a load (isWrite false) or store (isWrite true) against the
// cache with allocate-on-miss semantics for both (write-allocate, write-back
// per the paper). On a miss the line is installed immediately; the caller is
// responsible for modelling the fill latency (via MSHRs upstream).
func (c *Cache) Access(addr uint64, isWrite bool) Result {
	set, tag := c.index(addr)
	c.stamp++
	c.mru = addr>>c.lineShift + 1
	base := set * c.ways

	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			l.lru = c.stamp
			if isWrite {
				l.dirty = true
			}
			c.Hits++
			return Result{Hit: true}
		}
	}
	c.Misses++

	// Choose victim: invalid way first, else LRU.
	victim := -1
	for w := 0; w < c.ways; w++ {
		if !c.lines[base+w].valid {
			victim = w
			break
		}
	}
	if victim == -1 {
		victim = 0
		for w := 1; w < c.ways; w++ {
			if c.lines[base+w].lru < c.lines[base+victim].lru {
				victim = w
			}
		}
	}
	v := &c.lines[base+victim]
	res := Result{}
	if v.valid && v.dirty {
		res.Eviction = true
		res.VictimAddr = (v.tag<<c.setShift | uint64(set)) << c.lineShift
	}
	*v = line{tag: tag, valid: true, dirty: isWrite, lru: c.stamp}
	return res
}

// Invalidate drops a line if present, returning whether it was dirty.
func (c *Cache) Invalidate(addr uint64) (present, dirty bool) {
	set, tag := c.index(addr)
	for w := 0; w < c.ways; w++ {
		l := &c.lines[set*c.ways+w]
		if l.valid && l.tag == tag {
			present, dirty = true, l.dirty
			l.valid, c.mru = false, 0
			return
		}
	}
	return
}

// MissRate returns misses / (hits + misses).
func (c *Cache) MissRate() float64 {
	total := c.Hits + c.Misses
	if total == 0 {
		return 0
	}
	return float64(c.Misses) / float64(total)
}

// MSHR is a miss-status holding register file: it tracks outstanding line
// fills and merges secondary misses to the same line, bounding a core's
// memory-level parallelism exactly as the hardware structure does.
//
// It is a fixed table sized by NewMSHR, with no map and no allocation after
// it: entries 0..n-1 are live, in no particular order, and entry i's waiters
// are row i of waiters, in merge order.
type MSHR struct {
	lines   []uint64 // line address of each entry
	counts  []int    // waiters on each entry
	waiters []int    // mergeWidth warp IDs per entry
	n       int      // live entries
	// MaxMerged bounds waiters per entry (secondary-miss capacity); it may be
	// lowered, not raised, from its default, the row width mergeWidth.
	MaxMerged int
}

// mergeWidth is the waiters an MSHR entry has room for and MaxMerged's
// default.
const mergeWidth = 8

// NewMSHR builds an MSHR file with the given number of entries.
func NewMSHR(capacity int) *MSHR { return &NewMSHRSlab(1, capacity)[0] }

// NewMSHRSlab builds n MSHR files of capacity entries each in four
// allocations: element i is what NewMSHR returns.
func NewMSHRSlab(n, capacity int) []MSHR {
	per := capacity * mergeWidth
	lines, counts := make([]uint64, n*capacity), make([]int, n*capacity)
	waiters, ms := make([]int, n*per), make([]MSHR, n)
	for i := range ms {
		lo, hi := i*capacity, (i+1)*capacity
		ms[i] = MSHR{
			lines:     lines[lo:hi:hi],
			counts:    counts[lo:hi:hi],
			waiters:   waiters[i*per : (i+1)*per : (i+1)*per],
			MaxMerged: mergeWidth,
		}
	}
	return ms
}

// Reset drops every outstanding miss.
func (m *MSHR) Reset() { m.n = 0 }

// find returns lineAddr's entry, -1 if it has none.
func (m *MSHR) find(lineAddr uint64) int {
	for i, l := range m.lines[:m.n] {
		if l == lineAddr {
			return i
		}
	}
	return -1
}

// Outcome of an MSHR allocation attempt.
type Outcome int

const (
	// Primary: new entry allocated; the caller must issue a fill request.
	Primary Outcome = iota
	// Merged: an outstanding fill exists; the warp piggybacks on it.
	Merged
	// Stall: no entry or merge slot available; the access must retry.
	Stall
)

// Lookup reports whether a fill for lineAddr is outstanding and how many
// warps wait on it. It changes nothing: callers use it to decide, before
// Allocate, whether an access would stall.
func (m *MSHR) Lookup(lineAddr uint64) (waiters int, ok bool) {
	if i := m.find(lineAddr); i >= 0 {
		return m.counts[i], true
	}
	return 0, false
}

// Allocate records warp's interest in lineAddr. It panics if MaxMerged was
// raised above mergeWidth.
func (m *MSHR) Allocate(lineAddr uint64, warp int) Outcome {
	if m.MaxMerged > mergeWidth {
		panic(fmt.Sprintf("cache: MSHR MaxMerged %d above the %d waiters an entry has room for", m.MaxMerged, mergeWidth))
	}
	if i := m.find(lineAddr); i >= 0 {
		c := m.counts[i]
		if c >= m.MaxMerged {
			return Stall
		}
		m.waiters[i*mergeWidth+c] = warp
		m.counts[i] = c + 1
		return Merged
	}
	if m.n == len(m.lines) {
		return Stall
	}
	i := m.n
	m.lines[i], m.counts[i], m.waiters[i*mergeWidth] = lineAddr, 1, warp
	m.n++
	return Primary
}

// Fill completes the outstanding miss on lineAddr, returning the warps to
// wake in merge order, valid until the next Allocate reuses the slice. It
// panics if no entry exists: a fill without a miss is a protocol bug upstream.
func (m *MSHR) Fill(lineAddr uint64) []int {
	i := m.find(lineAddr)
	if i < 0 {
		panic(fmt.Sprintf("cache: MSHR fill for line %#x with no entry", lineAddr))
	}
	// The last live entry takes slot i and the filled one the last slot,
	// which stays intact until an Allocate reuses it.
	last, w := m.n-1, mergeWidth
	c := m.counts[i]
	if i != last {
		row, lastRow := m.waiters[i*w:(i+1)*w], m.waiters[last*w:(last+1)*w]
		for k := range max(c, m.counts[last]) {
			row[k], lastRow[k] = lastRow[k], row[k]
		}
		m.lines[i], m.counts[i] = m.lines[last], m.counts[last]
	}
	m.n = last
	return m.waiters[last*w : last*w+c : last*w+c]
}

// Occupancy returns the number of live entries.
func (m *MSHR) Occupancy() int { return m.n }

// Full reports whether no new primary miss can allocate.
func (m *MSHR) Full() bool { return m.n >= len(m.lines) }
