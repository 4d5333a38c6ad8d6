// Package cache implements the set-associative write-back caches of the
// simulated GPGPU (Table 2: 16KB 4-way L1 data, 2KB 4-way L1 instruction,
// 64KB 8-way L2 slice per MC) and the MSHR file that tracks outstanding
// misses.
//
// The cache is a timing/behaviour model: it tracks tags, dirty bits and LRU
// state, not data. Lookups report hit/miss and dirty evictions so the caller
// can generate the write-back traffic the paper's write-back policy implies.
package cache

import "fmt"

// line is one cache way's state.
type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // last-touch stamp; larger is more recent
}

// Cache is a set-associative write-back cache with LRU replacement.
type Cache struct {
	sets      int
	ways      int
	lineBytes int
	lines     []line // sets*ways, row-major by set
	stamp     uint64

	Hits   int64
	Misses int64
}

// New builds a cache of totalBytes capacity with the given associativity and
// line size. It panics if the geometry is inconsistent (configuration is
// validated upstream; geometry bugs are programming errors).
func New(totalBytes, ways, lineBytes int) *Cache {
	if totalBytes <= 0 || ways <= 0 || lineBytes <= 0 {
		panic("cache: non-positive geometry")
	}
	linesTotal := totalBytes / lineBytes
	if linesTotal == 0 || linesTotal%ways != 0 {
		panic(fmt.Sprintf("cache: %dB/%d-way/%dB lines is not a whole number of sets",
			totalBytes, ways, lineBytes))
	}
	return &Cache{
		sets:      linesTotal / ways,
		ways:      ways,
		lineBytes: lineBytes,
		lines:     make([]line, linesTotal),
	}
}

// Reset empties the cache — every line invalid, LRU stamps and counters
// zero — keeping its storage. A cache never accessed since New or the last
// Reset (stamp 0: every access stamps) is empty already.
func (c *Cache) Reset() {
	if c.stamp == 0 {
		return
	}
	clear(c.lines)
	c.stamp, c.Hits, c.Misses = 0, 0, 0
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

// LineBytes returns the line size.
func (c *Cache) LineBytes() int { return c.lineBytes }

func (c *Cache) index(addr uint64) (set int, tag uint64) {
	lineAddr := addr / uint64(c.lineBytes)
	return int(lineAddr % uint64(c.sets)), lineAddr / uint64(c.sets)
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

// Touch is the read-hit half of Access in one set scan: on a hit it does
// exactly what Access(addr, false) does (refreshes the LRU stamp, counts the
// hit) and returns true; on a miss it changes nothing — no counter, no
// install — so a caller that must check resources before allocating can
// still back out.
func (c *Cache) Touch(addr uint64) bool {
	set, tag := c.index(addr)
	base := set * c.ways
	for w := 0; w < c.ways; w++ {
		l := &c.lines[base+w]
		if l.valid && l.tag == tag {
			c.stamp++
			l.lru = c.stamp
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
		res.VictimAddr = (v.tag*uint64(c.sets) + uint64(set)) * uint64(c.lineBytes)
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
			l.valid = false
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
type MSHR struct {
	entries  map[uint64][]int // line address -> waiting warp IDs
	spare    [][]int          // waiter lists Fill emptied, for Allocate to reuse
	capacity int
	// MaxMerged bounds waiters per entry (secondary-miss capacity).
	MaxMerged int
}

// NewMSHR builds an MSHR file with the given number of entries.
func NewMSHR(capacity int) *MSHR {
	return &MSHR{
		entries:   make(map[uint64][]int, capacity),
		capacity:  capacity,
		MaxMerged: 8,
	}
}

// Reset drops every outstanding miss, keeping the waiter lists for Allocate
// to reuse.
func (m *MSHR) Reset() {
	if len(m.entries) == 0 {
		return
	}
	for _, waiters := range m.entries { //noclint:determinism the lists are emptied, so their order in spare is never observed
		m.spare = append(m.spare, waiters[:0])
	}
	clear(m.entries)
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
	w, ok := m.entries[lineAddr]
	return len(w), ok
}

// Allocate records warp's interest in lineAddr.
func (m *MSHR) Allocate(lineAddr uint64, warp int) Outcome {
	if waiters, ok := m.entries[lineAddr]; ok {
		if len(waiters) >= m.MaxMerged {
			return Stall
		}
		m.entries[lineAddr] = append(waiters, warp)
		return Merged
	}
	if len(m.entries) >= m.capacity {
		return Stall
	}
	var waiters []int
	if n := len(m.spare); n > 0 {
		waiters, m.spare = m.spare[n-1], m.spare[:n-1]
	} else {
		waiters = make([]int, 0, m.MaxMerged)
	}
	m.entries[lineAddr] = append(waiters, warp)
	return Primary
}

// Fill completes the outstanding miss on lineAddr, returning the warps to
// wake, valid until the next Allocate reuses the slice. It panics if no
// entry exists: a fill without a miss is a protocol bug upstream.
func (m *MSHR) Fill(lineAddr uint64) []int {
	waiters, ok := m.entries[lineAddr]
	if !ok {
		panic(fmt.Sprintf("cache: MSHR fill for line %#x with no entry", lineAddr))
	}
	delete(m.entries, lineAddr)
	m.spare = append(m.spare, waiters[:0])
	return waiters
}

// Occupancy returns the number of live entries.
func (m *MSHR) Occupancy() int { return len(m.entries) }

// Full reports whether no new primary miss can allocate.
func (m *MSHR) Full() bool { return len(m.entries) >= m.capacity }
