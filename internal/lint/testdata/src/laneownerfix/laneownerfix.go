// Package noc is a lint fixture exercising the laneowner analyzer: a
// miniature Network/lane pair with a worker goroutine whose reachable
// functions touch shared and lane-owned state in every shape the analyzer
// classifies. It is loaded under an import path ending in /internal/noc so
// the analyzer's package gate admits it.
package noc

// Network mirrors the shared-state shape of the real network: two
// lane-partitioned arena fields (routers, inj) and everything else shared.
type Network struct {
	routers  []router
	inj      []injQueue
	cycle    int64
	lastMove int64
	inFlight int
	active   []int32
	sinks    []func(int)
	laneFn   func(int)
	stats    *collector
	mesh     meshInfo
	tr       tracer
}

type router struct{ buf int }

type injQueue struct{ n int }

// lane is the worker's own shard; everything reached through it is trusted.
type lane struct {
	lo, hi int
	moved  bool
	outbox []int
}

type collector struct{ flits int64 }

// CountLink is a pointer-receiver mutation the call graph does not follow.
func (c *collector) CountLink() { c.flits++ }

func newCollector() *collector { return &collector{} }

// meshInfo only has value receivers: calls on it cannot mutate the network.
type meshInfo struct{ w int }

func (m meshInfo) width() int { return m.w }

type tracer interface{ Trace(int) }

// Start launches the workers; its go statement seeds the analyzer's roots.
func (n *Network) Start() {
	for i := 0; i < 2; i++ {
		go n.worker(&lane{})
	}
}

func (n *Network) worker(ln *lane) {
	n.phase(ln)
	n.helper(ln)
}

// phase exercises every ownership class the analyzer distinguishes.
func (n *Network) phase(ln *lane) {
	ln.moved = true                  // lane shard: trusted
	ln.outbox = append(ln.outbox, 1) // lane shard: trusted
	n.routers[ln.lo].buf++           // arena element: lane-owned by ID range
	n.inj[ln.lo].n = 3               // arena element: lane-owned by ID range

	n.cycle++            // want "worker-phase write to shared network state n.cycle"
	n.lastMove = n.cycle // want "worker-phase write to shared network state n.lastMove"

	n.active = append(n.active, 1) // want "worker-phase write to shared network state n.active"

	s := n.stats  // alias: s is now rooted in shared state
	s.CountLink() // want "pointer-receiver method CountLink on shared network state s"

	local := n.stats
	local = newCollector()
	local.CountLink() // rebound to a fresh value: no longer shared

	n.sinks[0](7) // want "dynamic call through shared function value n.sinks"
	n.laneFn(7)   // want "dynamic call through shared function value n.laneFn"

	n.tr.Trace(1) // want "interface method Trace on shared network state n.tr"

	_ = n.mesh.width() // value receiver: cannot mutate shared state

	n.lastMove = 0 //noclint:laneowner fixture: justified single-writer slot
}

// helper is reached through worker; a justified directive must not be needed
// for lane-owned writes here either.
func (n *Network) helper(ln *lane) {
	n.routers[ln.hi-1].buf = 0
	n.moveCycle() // Network-receiver method: followed through the call graph
}

// moveCycle is reachable via helper; its shared write is still flagged even
// though the call site itself is exempt.
func (n *Network) moveCycle() {
	n.cycle++ // want "worker-phase write to shared network state n.cycle"
}

// Inject is reached from the workers only through a callback another package
// defines, which the per-package call graph cannot follow: the doc-comment
// marker roots it, and the unsharded tally — the exact defect the real
// Inject had before endpoint ticks moved onto the lanes — is flagged.
//
//noclint:laneowner root: fixture: called by endpoint callbacks the workers run
func (n *Network) Inject(node, flits int) {
	n.inj[node].n += flits // arena element: lane-owned by ID range
	n.inFlight += flits    // want "worker-phase write to shared network state n.inFlight"
}

// spawnLit roots a goroutine literal; its captured network is shared.
func spawnLit(n *Network) {
	go func() {
		n.cycle = 0 // want "worker-phase write to shared network state n.cycle"
	}()
}

// finish runs only on the stepping goroutine: it is not reachable from any
// goroutine root and must not be flagged.
func (n *Network) finish() {
	n.cycle++
	n.active = n.active[:0]
	n.lastMove = n.cycle
}
