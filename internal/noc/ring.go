package noc

import "gpgpunoc/internal/packet"

// bufFlit is a buffered flit plus the cycle it entered the buffer; the
// router's pipeline delay is enforced against the arrival stamp.
type bufFlit struct {
	flit    packet.Flit
	arrived int64
}

// ring is a fixed-capacity FIFO of buffered flits. It models one VC buffer;
// capacity equals the VC depth and never reallocates on the hot path. The
// wrap arithmetic is branch-based rather than modulo: pop/push sit inside
// the switch-allocation inner loop and an integer divide per flit is
// measurable there.
type ring struct {
	buf  []bufFlit
	head int
	n    int
}

func newRing(capacity int) ring {
	return ring{buf: make([]bufFlit, capacity)}
}

// newRingFrom wraps preallocated storage (len == capacity) as a ring. The
// network's router arena carves one contiguous bufFlit block into per-VC
// rings this way, so a spatial domain's buffers are cache-local.
func newRingFrom(buf []bufFlit) ring {
	return ring{buf: buf}
}

func (r *ring) len() int  { return r.n }
func (r *ring) cap() int  { return len(r.buf) }
func (r *ring) free() int { return len(r.buf) - r.n }

func (r *ring) push(f packet.Flit, cycle int64) {
	if r.n == len(r.buf) {
		panic("noc: VC buffer overflow; credit accounting is broken")
	}
	i := r.head + r.n
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	r.buf[i] = bufFlit{flit: f, arrived: cycle}
	r.n++
}

// front returns the oldest buffered flit without copying it; the pointer is
// valid until the next push or pop.
func (r *ring) front() *bufFlit {
	if r.n == 0 {
		panic("noc: front of empty VC buffer")
	}
	return &r.buf[r.head]
}

// frontArrived returns the arrival cycle of the oldest buffered flit, from
// which the router stamps the VC's pipeline gate when a pop exposes a new
// front.
func (r *ring) frontArrived() int64 {
	if r.n == 0 {
		panic("noc: front of empty VC buffer")
	}
	return r.buf[r.head].arrived
}

// at returns the j-th oldest buffered flit, 0 <= j < len.
func (r *ring) at(j int) packet.Flit {
	i := r.head + j
	if i >= len(r.buf) {
		i -= len(r.buf)
	}
	return r.buf[i].flit
}

func (r *ring) pop() bufFlit {
	if r.n == 0 {
		panic("noc: front of empty VC buffer")
	}
	f := r.buf[r.head]
	r.head++
	if r.head == len(r.buf) {
		r.head = 0
	}
	r.n--
	return f
}
