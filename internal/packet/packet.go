// Package packet defines the messages carried by the GPGPU on-chip network:
// four packet types (read/write x request/reply), the two traffic classes the
// deadlock-avoidance machinery cares about, and flit framing for wormhole
// switching.
//
// Packet sizes follow Section 3.1.1 of the paper: read requests and write
// replies are short single-flit packets; read replies and write requests are
// long packets carrying a cache line (5 flits: head + 4 data flits for a
// 128-byte line on a 32-byte channel).
package packet

import "fmt"

// Class separates the two protocol levels that must not block each other:
// requests (cores -> MCs) and replies (MCs -> cores). Protocol deadlock
// freedom requires that a reply can always make progress even when every
// request in flight is stalled; VC policies express that in terms of Class.
type Class uint8

const (
	Request Class = iota
	Reply
	// NumClasses is the number of traffic classes.
	NumClasses = 2
)

// String returns "request" or "reply".
func (c Class) String() string {
	if c == Request {
		return "request"
	}
	return "reply"
}

// Other returns the opposite class.
func (c Class) Other() Class { return 1 - c }

// Type identifies the protocol message a packet carries.
type Type uint8

const (
	ReadRequest Type = iota
	WriteRequest
	ReadReply
	WriteReply
	// NumTypes is the number of packet types.
	NumTypes = 4
)

var typeNames = [NumTypes]string{"READ-REQUEST", "WRITE-REQUEST", "READ-REPLY", "WRITE-REPLY"}

// String returns the packet type name as used in the paper's Figure 3.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Class returns the traffic class of the packet type.
func (t Type) Class() Class {
	if t == ReadRequest || t == WriteRequest {
		return Request
	}
	return Reply
}

// IsRead reports whether the type belongs to a read transaction.
func (t Type) IsRead() bool { return t == ReadRequest || t == ReadReply }

// Reply returns the reply type matching a request type. It panics on a reply
// type: generating a reply to a reply is a protocol bug.
func (t Type) Reply() Type {
	switch t {
	case ReadRequest:
		return ReadReply
	case WriteRequest:
		return WriteReply
	}
	panic("packet: Reply called on non-request type " + t.String())
}

// Default packet lengths in flits (Section 3.1.1).
const (
	ShortFlits = 1 // read request, write reply
	LongFlits  = 5 // read reply, write request: head + 128B line / 32B flits
)

// Length returns the number of flits a packet of type t occupies with the
// default framing.
func Length(t Type) int {
	if t == ReadRequest || t == WriteReply {
		return ShortFlits
	}
	return LongFlits
}

// MemAccess is the memory-system payload a packet carries end to end. The
// network does not interpret it; SMs and MCs do.
type MemAccess struct {
	Addr   uint64 // line-aligned byte address
	SM     int    // issuing SM index (reply destination lookup)
	IsInst bool   // instruction fetch (unused by data-only workloads)
}

// Packet is one network message. A packet is created at injection, carried as
// a sequence of flits, and reassembled implicitly at ejection (wormhole
// switching delivers flits in order on a single path, so the tail's arrival
// completes the packet).
//
// A packet's storage belongs to the endpoint that ejects it: the sink that
// accepts the tail may reuse it (FreeList) for a packet it creates later.
// So nothing may hold a *Packet past the cycle its tail was ejected; a
// record that outlives the cycle copies the fields it needs.
type Packet struct {
	ID       uint64
	Type     Type
	Src, Dst int // node IDs in the mesh
	Flits    int // total length in flits

	Access MemAccess

	// Timestamps for latency accounting, in network cycles.
	CreatedAt  int64 // when the source queued the packet
	InjectedAt int64 // when the head flit entered the network
	EjectedAt  int64 // when the tail flit left the network

	// Request-phase timestamps, copied onto the reply by the memory
	// controller so a transaction's end-to-end latency decomposes into
	// source queueing / request network / MC service / reply network
	// segments (internal/telemetry). ReqTimed marks them valid: cycle 0
	// is a legitimate timestamp, so zero values alone cannot.
	ReqCreatedAt  int64
	ReqInjectedAt int64
	ReqEjectedAt  int64
	ReqTimed      bool

	// Sampled marks the packet as selected by the observability span
	// sampler (internal/obs): probe sites record lifecycle events only
	// for sampled packets, so an unsampled packet costs one boolean test
	// per site. Replies inherit the request's decision at the memory
	// controller. Purely observational — nothing in the simulation reads
	// it.
	Sampled bool
}

// Class returns the packet's traffic class.
func (p *Packet) Class() Class { return p.Type.Class() }

// String summarizes the packet for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt#%d %s %d->%d (%df)", p.ID, p.Type, p.Src, p.Dst, p.Flits)
}

// FreeList holds the storage of the packets an endpoint ejected (see
// Packet). Only the endpoint's sink and tick, both run by the goroutine
// stepping the network, touch it, so it needs no lock; unlike a sync.Pool it survives a GC, so a
// run's allocations do not depend on the collector. The zero value is empty.
type FreeList struct{ free []*Packet }

// Get returns storage holding v: the last packet released, every field
// overwritten, or a new one while the list is empty.
func (l *FreeList) Get(v Packet) *Packet {
	var p *Packet
	if n := len(l.free); n > 0 {
		p, l.free = l.free[n-1], l.free[:n-1]
	} else {
		p = new(Packet)
	}
	*p = v
	return p
}

// Put releases p's storage to the next Get. p must have ended its life here.
func (l *FreeList) Put(p *Packet) { l.free = append(l.free, p) }

// Flit is the unit of flow control. Flits of one packet travel the same path
// (wormhole switching); only head flits carry routing state.
type Flit struct {
	Pkt  *Packet
	Seq  int // 0-based position within the packet
	Head bool
	Tail bool
}

// Flitize expands a packet into its flit sequence.
func Flitize(p *Packet) []Flit {
	fs := make([]Flit, p.Flits)
	for i := range fs {
		fs[i] = Flit{Pkt: p, Seq: i, Head: i == 0, Tail: i == p.Flits-1}
	}
	return fs
}

// FIFO is a queue of packets that keeps its backing array. Pop advances a
// head index instead of re-slicing from the front — q = q[1:] forfeits the
// consumed capacity, so the next append reallocates — and nils the vacated
// slot so a consumed packet is not pinned; Push compacts the live tail down
// only when the array is full. In steady state the queue allocates nothing.
// The zero value is an empty queue.
type FIFO struct {
	pkts []*Packet // live from head
	head int
}

// Len returns the number of queued packets.
func (q *FIFO) Len() int { return len(q.pkts) - q.head }

// Cap returns the capacity of the backing array (the reuse tests watch it).
func (q *FIFO) Cap() int { return cap(q.pkts) }

// At returns the i-th oldest packet, 0 <= i < Len.
func (q *FIFO) At(i int) *Packet { return q.pkts[q.head+i] }

// Front returns the oldest packet; the queue must not be empty.
func (q *FIFO) Front() *Packet { return q.pkts[q.head] }

// Push appends p.
func (q *FIFO) Push(p *Packet) {
	if q.head > 0 && len(q.pkts) == cap(q.pkts) {
		live := copy(q.pkts, q.pkts[q.head:])
		clear(q.pkts[live:])
		q.pkts = q.pkts[:live]
		q.head = 0
	}
	q.pkts = append(q.pkts, p)
}

// Pop removes the oldest packet; the queue must not be empty.
func (q *FIFO) Pop() {
	q.pkts[q.head] = nil
	q.head++
	if q.head == len(q.pkts) {
		q.pkts = q.pkts[:0]
		q.head = 0
	}
}
