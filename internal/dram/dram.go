// Package dram models the off-chip memory behind each memory controller: a
// set of banks with open-row (row-buffer) state, a bounded request queue,
// and either in-order (FCFS) or FR-FCFS scheduling.
//
// Latency and occupancy are modelled separately, as in real DRAM: an access
// completes MinLatency (+row-miss penalty) cycles after issue — Table 2's
// 220-cycle minimum — but the bank is tied up only for the cycle-time of the
// row operation (tRC-scale), so banks pipeline accesses and the channel
// sustains GDDR-like throughput. Conflating the two would make DRAM, not
// the NoC, the system bottleneck and erase the effects the paper studies.
//
// The paper's baseline uses a simple in-order scheduler (its reference [15]
// argues NoC-level reordering makes in-order competitive); FR-FCFS is
// provided for the ablation benches.
package dram

import (
	"fmt"
	"math"
	"strconv"

	"gpgpunoc/internal/telemetry"
)

// Params configures one DRAM channel.
type Params struct {
	Banks          int
	RowBytes       int
	MinLatency     int // row-hit access latency (issue to data), cycles
	RowMissPenalty int // extra latency to precharge+activate on a row miss
	OccupancyHit   int // cycles the bank stays busy on a row hit
	OccupancyMiss  int // cycles the bank stays busy on a row miss
	QueueCap       int
	FRFCFS         bool
}

// DefaultParams mirrors Table 2: 8 banks, 2KB rows, 220-cycle minimum
// latency, with tRC-scale bank occupancies.
func DefaultParams() Params {
	return Params{
		Banks:          8,
		RowBytes:       2 << 10,
		MinLatency:     220,
		RowMissPenalty: 80,
		OccupancyHit:   16,
		OccupancyMiss:  40,
		QueueCap:       64,
	}
}

// request is one queued access.
type request struct {
	id     uint64
	bank   int
	row    uint64
	arrive int64
}

// inflight is an issued access awaiting completion.
type inflight struct {
	id      uint64
	readyAt int64
}

// bank tracks open-row and busy state.
type bank struct {
	openRow  uint64
	rowValid bool
	busyTill int64
}

// IssueHook observes command issue for span tracing: the access id, the
// bank it issued to, whether it hit the open row, and the issue cycle.
// Implementations must not touch channel state.
type IssueHook func(id uint64, bank int, rowHit bool, now int64)

// DRAM is one memory channel.
type DRAM struct {
	p        Params
	queue    []request
	banks    []bank
	inflight []inflight
	done     []uint64

	issueHook IssueHook

	// Stats.
	RowHits   int64
	RowMisses int64
	Served    int64
}

// New builds a channel. It panics on non-positive geometry.
func New(p Params) *DRAM {
	if p.Banks <= 0 || p.RowBytes <= 0 || p.MinLatency <= 0 || p.QueueCap <= 0 ||
		p.OccupancyHit <= 0 || p.OccupancyMiss <= 0 {
		panic(fmt.Sprintf("dram: invalid params %+v", p))
	}
	return &DRAM{p: p, banks: make([]bank, p.Banks)}
}

// Reset empties the channel — queue, in-flight accesses, completions, open
// rows — and zeroes its counters, keeping its storage and issue hook.
func (d *DRAM) Reset() {
	d.queue, d.inflight, d.done = d.queue[:0], d.inflight[:0], d.done[:0]
	clear(d.banks)
	d.RowHits, d.RowMisses, d.Served = 0, 0, 0
}

// locate maps an address to (bank, row) with row-interleaved banks.
func (d *DRAM) locate(addr uint64) (int, uint64) {
	rowAddr := addr / uint64(d.p.RowBytes)
	return int(rowAddr % uint64(d.p.Banks)), rowAddr / uint64(d.p.Banks)
}

// Enqueue queues an access identified by id. It returns false when the
// queue is full (backpressure to the MC).
func (d *DRAM) Enqueue(id uint64, addr uint64, now int64) bool {
	if len(d.queue) >= d.p.QueueCap {
		return false
	}
	b, r := d.locate(addr)
	d.queue = append(d.queue, request{id: id, bank: b, row: r, arrive: now})
	return true
}

// QueueLen returns the number of queued (unissued) requests.
func (d *DRAM) QueueLen() int { return len(d.queue) }

// AttachTelemetry registers the probes of the channel behind memory
// controller mc on reg (names "mc.<mc>.dram.<field>"), all as GaugeFuncs
// reading state the channel already tracks: queue depth,
// issued-but-incomplete accesses, and the row-buffer hit/miss counters.
// Nothing on the per-cycle path changes.
func (d *DRAM) AttachTelemetry(reg *telemetry.Registry, mc int) {
	if reg == nil {
		return
	}
	gauge := func(field string, fn func() int64) {
		reg.GaugeFunc(fmt.Sprintf("mc.%d.dram.%s", mc, field), telemetry.Desc{
			Family: "noc_mc_dram_" + field,
			Help:   "DRAM channel state behind a memory controller.",
			Labels: []string{"mc", strconv.Itoa(mc)},
		}, fn)
	}
	gauge("queue_depth", func() int64 { return int64(len(d.queue)) })
	gauge("inflight", func() int64 { return int64(len(d.inflight)) })
	gauge("row_hits", func() int64 { return d.RowHits })
	gauge("row_misses", func() int64 { return d.RowMisses })
	gauge("served", func() int64 { return d.Served })
}

// SetIssueHook installs a command-issue observer (nil disables it, the
// default): one predictable nil check per issued command.
func (d *DRAM) SetIssueHook(h IssueHook) { d.issueHook = h }

// InFlight returns the number of issued, incomplete accesses.
func (d *DRAM) InFlight() int { return len(d.inflight) }

// pick selects the next queue index to issue, or -1. FCFS issues strictly
// in arrival order, waiting if the oldest request's bank is busy; FR-FCFS
// first prefers ready row hits, then the oldest request with a ready bank.
func (d *DRAM) pick(now int64) int {
	if len(d.queue) == 0 {
		return -1
	}
	if !d.p.FRFCFS {
		rq := d.queue[0]
		if d.banks[rq.bank].busyTill <= now {
			return 0
		}
		return -1
	}
	for i, rq := range d.queue {
		b := &d.banks[rq.bank]
		if b.busyTill <= now && b.rowValid && b.openRow == rq.row {
			return i
		}
	}
	for i, rq := range d.queue {
		if d.banks[rq.bank].busyTill <= now {
			return i
		}
	}
	return -1
}

// Tick advances the channel one cycle: completes finished accesses and
// issues at most one new access (command bandwidth 1/cycle).
func (d *DRAM) Tick(now int64) {
	if len(d.inflight) > 0 {
		keep := d.inflight[:0]
		for _, f := range d.inflight {
			if f.readyAt <= now {
				d.done = append(d.done, f.id)
				d.Served++
			} else {
				keep = append(keep, f)
			}
		}
		d.inflight = keep
	}
	if i := d.pick(now); i >= 0 {
		rq := d.queue[i]
		d.queue = append(d.queue[:i], d.queue[i+1:]...)
		b := &d.banks[rq.bank]
		lat := int64(d.p.MinLatency)
		occ := int64(d.p.OccupancyHit)
		rowHit := b.rowValid && b.openRow == rq.row
		if rowHit {
			d.RowHits++
		} else {
			d.RowMisses++
			lat += int64(d.p.RowMissPenalty)
			occ = int64(d.p.OccupancyMiss)
		}
		if d.issueHook != nil {
			d.issueHook(rq.id, rq.bank, rowHit, now)
		}
		b.openRow, b.rowValid = rq.row, true
		b.busyTill = now + occ
		d.inflight = append(d.inflight, inflight{id: rq.id, readyAt: now + lat})
	}
}

// NextEvent returns the earliest cycle at or after now at which Tick could
// do any work: now itself when completions wait to be drained or a request
// could issue, otherwise the earliest in-flight completion or bank release
// that would unblock the scheduler, or math.MaxInt64 for an empty channel.
// Ticks strictly before the returned cycle are no-ops, which is what lets
// the memory controller sleep through them.
func (d *DRAM) NextEvent(now int64) int64 {
	if len(d.done) > 0 || d.pick(now) >= 0 {
		return now
	}
	h := int64(math.MaxInt64)
	for _, f := range d.inflight {
		if f.readyAt < h {
			h = f.readyAt
		}
	}
	if len(d.queue) > 0 {
		// pick returned -1, so every bank that could admit a queued request
		// is busy; the earliest relevant release is the next issue chance.
		// FCFS only ever considers the head request's bank.
		if !d.p.FRFCFS {
			if b := d.banks[d.queue[0].bank].busyTill; b < h {
				h = b
			}
		} else {
			for _, rq := range d.queue {
				if b := d.banks[rq.bank].busyTill; b < h {
					h = b
				}
			}
		}
	}
	return h
}

// Completed drains and returns the ids finished since the last call, in
// completion order, in a slice the next Tick reuses.
func (d *DRAM) Completed() []uint64 {
	out := d.done
	d.done = d.done[:0]
	return out
}

// RowHitRate returns row-buffer hits over all served accesses.
func (d *DRAM) RowHitRate() float64 {
	total := d.RowHits + d.RowMisses
	if total == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(total)
}
