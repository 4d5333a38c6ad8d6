package noc

import (
	"fmt"
	"strings"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/vc"
)

// busyNet returns a network mid-flight: several packets injected and a few
// cycles stepped, so buffers, credits and the in-flight counter all hold
// non-trivial state, then verified clean.
func busyNet(t *testing.T) *Network {
	t.Helper()
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
	attachCollectors(n)
	for i := 0; i < 6; i++ {
		p := mkPacket(uint64(i+1), packet.ReadReply, mesh.NodeID(i), mesh.NodeID(63-i), 0)
		if !n.Inject(p) {
			t.Fatalf("injection %d refused", i)
		}
	}
	for i := 0; i < 20; i++ {
		n.Step()
	}
	if n.FlitsInFlight() == 0 {
		t.Fatal("network drained before corruption could be tested")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants already broken before corruption: %v", err)
	}
	return n
}

// firstOutPort returns some existing output port of the network.
func firstOutPort(t *testing.T, n *Network) *outPort {
	t.Helper()
	for i := range n.routers {
		for d := mesh.North; d < mesh.Local; d++ {
			if op := &n.routers[i].out[d]; op.exists {
				return op
			}
		}
	}
	t.Fatal("no output port found")
	return nil
}

func TestCheckInvariantsDetectsCreditLeak(t *testing.T) {
	n := busyNet(t)
	op := firstOutPort(t, n)
	op.credits[0]++ // a credit appearing from nowhere
	err := n.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted a corrupted credit counter")
	}
	if !strings.Contains(err.Error(), "credit leak") {
		t.Errorf("error %q does not identify the credit leak", err)
	}

	// The symmetric corruption — a credit silently destroyed — must be
	// caught too.
	op.credits[0] -= 2
	if err := n.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "credit leak") {
		t.Errorf("lost credit not reported as a leak: %v", err)
	}
}

func TestCheckInvariantsDetectsFlitConservationBreak(t *testing.T) {
	n := busyNet(t)
	n.inFlight++ // tracker claims a flit the buffers do not hold
	err := n.CheckInvariants()
	if err == nil {
		t.Fatal("CheckInvariants accepted a corrupted in-flight counter")
	}
	if !strings.Contains(err.Error(), "flit conservation broken") {
		t.Errorf("error %q does not identify the conservation break", err)
	}
}

func TestCheckInvariantsCleanAfterDrain(t *testing.T) {
	n := busyNet(t)
	if !n.Drain(2000) {
		t.Fatalf("network failed to drain; %d flits in flight", n.FlitsInFlight())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("invariants broken after a clean drain: %v", err)
	}
}

// TestDualCheckInvariants verifies the Dual implementation checks both
// subnets and names the broken one.
func TestDualCheckInvariants(t *testing.T) {
	cfg := config.Default().NoC
	d := NewDual(cfg, routing.MustNew(cfg.Routing))
	if err := d.CheckInvariants(); err != nil {
		t.Fatalf("fresh dual network fails invariants: %v", err)
	}

	d.request.inFlight++
	err := d.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "request subnet") {
		t.Errorf("request-subnet corruption reported as %v", err)
	}
	d.request.inFlight--

	d.reply.inFlight++
	err = d.CheckInvariants()
	if err == nil || !strings.Contains(err.Error(), "reply subnet") {
		t.Errorf("reply-subnet corruption reported as %v", err)
	}
}

// loadedNet returns a saturated network — every mask populated, credits
// exhausted on the hot links, sinks refusing — verified clean.
func loadedNet(t *testing.T, workers int, opts ...Option) *Network {
	t.Helper()
	n := newWorkerNet(t, config.RoutingXY, config.VCSplit, workers, opts...)
	nn := n.Mesh().NumNodes()
	for i := 0; i < nn; i++ {
		node := i
		n.SetSink(mesh.NodeID(i), func(packet.Flit) bool { return (n.Cycle()+int64(node))%3 == 0 })
	}
	r := rng.New(11)
	for id := uint64(1); n.Cycle() < 150; n.Step() {
		for k := 0; k < 12; k, id = k+1, id+1 {
			typ := packet.Type(r.Intn(int(packet.NumTypes)))
			n.Inject(mkPacket(id, typ, mesh.NodeID(r.Intn(nn)), mesh.NodeID(r.Intn(nn)), n.Cycle()))
		}
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatalf("invariants already broken before corruption: %v", err)
	}
	return n
}

// TestMaskInvariants: the request masks, the pipeline-gate stamps and the
// run masks are redundant summaries the allocators and the phase
// walks trust blindly, so CheckInvariants must catch any single flipped bit
// in any mask of any router, any skewed stamp, and either corruption of a
// queues bit that matters — set on an empty queue, cleared on a queue with
// local VC space to use — and say which router or node and which mask.
func TestMaskInvariants(t *testing.T) {
	eachWorkers(t, maskInvariants)
}

func maskInvariants(t *testing.T, workers int) {
	n := loadedNet(t, workers)
	populated := map[string]bool{}
	for i := range n.routers {
		rt := &n.routers[i]
		masks := map[string]*uint64{"occ": &rt.occ, "credOK": &rt.credOK}
		for d := range rt.want {
			masks["want["+mesh.Direction(d).String()+"]"] = &rt.want[d]
		}
		for d := range rt.freeVC {
			masks["freeVC["+mesh.Direction(d).String()+"]"] = &rt.freeVC[d]
		}
		for d := range rt.vaWait {
			for c := range rt.vaWait[d] {
				masks["vaWait["+mesh.Direction(d).String()+"]["+packet.Class(c).String()+"]"] = &rt.vaWait[d][c]
			}
		}
		for name, m := range masks {
			if *m != 0 {
				populated[name] = true
			}
			for bit := 0; bit < 64; bit++ {
				*m ^= 1 << bit
				err := n.CheckInvariants()
				*m ^= 1 << bit
				if err == nil {
					t.Fatalf("router %v: flipping bit %d of %s went unnoticed", rt.coord, bit, name)
				}
				if msg := err.Error(); !strings.Contains(msg, "request mask "+name+" ") || !strings.Contains(msg, rt.coord.String()) {
					t.Fatalf("router %v: flipping bit %d of %s reported as %q", rt.coord, bit, name, msg)
				}
			}
		}
		for idx := range rt.vcs {
			ivc := &rt.vcs[idx]
			if ivc.buf.len() == 0 {
				continue
			}
			populated["readyAt"] = true
			for _, skew := range []int64{-1, 1} {
				ivc.readyAt += skew
				err := n.CheckInvariants()
				ivc.readyAt -= skew
				if err == nil || !strings.Contains(err.Error(), "pipeline gate") || !strings.Contains(err.Error(), rt.coord.String()) {
					t.Fatalf("router %v input VC %d: readyAt skewed by %d reported as %v", rt.coord, idx, skew, err)
				}
			}
		}
	}
	for i := range n.routers {
		flipRunBit(t, n, i, "buffered", populated)
		flipRunBit(t, n, i, "links", populated)
		bit := i
		switch q := &n.inj[i]; {
		case q.empty():
			populated["queues set"] = true
			n.queues.set(bit)
			err := n.CheckInvariants()
			n.queues.clear(bit)
			if want := fmt.Sprintf("injection queue of node %d is scheduled, but it is empty", i); err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("node %d: scheduling its empty queue reported as %v", i, err)
			}
		case n.queues.has(bit) && n.injectable(i) != "":
			populated["queues cleared"] = true
			n.queues.clear(bit)
			err := n.CheckInvariants()
			n.queues.set(bit)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("injection queue of node %d is blocked", i)) ||
				!strings.Contains(err.Error(), "the unblock of a Local pop was lost") {
				t.Fatalf("node %d: unscheduling its injectable queue reported as %v", i, err)
			}
		}
	}
	// A link register outlives the cycle that filled it only on a half-width
	// link, so only there does a flip ever turn a links bit off.
	half := loadedNet(t, workers, WithLinkPeriod(2))
	for i := range half.routers {
		flipRunBit(t, half, i, "links", populated)
	}
	// 2 scalar masks, 5 want, 4x2 vaWait, 4 freeVC, the stamps, 2 run masks
	// and the 2 queues corruptions: the load must have exercised every one
	// somewhere, or the flips above only ever turned bits on.
	if len(populated) != 2+mesh.NumPorts+mesh.NumLinkDirs*packet.NumClasses+mesh.NumLinkDirs+1+2+2 {
		t.Errorf("load left some masks empty on every router; populated: %v", populated)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("invariants broken after every corruption was undone: %v", err)
	}
}

// flipRunBit flips router i's bit of the named run mask, requires
// CheckInvariants to name the router and the mask, and undoes the flip. A bit
// found set is recorded in populated.
func flipRunBit(t *testing.T, n *Network, i int, name string, populated map[string]bool) {
	t.Helper()
	bit := i
	m := map[string]nodeMask{"buffered": n.buffered, "links": n.links}[name]
	if m.has(bit) {
		populated[name] = true
	}
	m[bit>>6] ^= 1 << (bit & 63)
	err := n.CheckInvariants()
	m[bit>>6] ^= 1 << (bit & 63)
	coord := n.routers[i].coord
	if err == nil {
		t.Fatalf("router %v: flipping its bit of %s went unnoticed", coord, name)
	}
	if msg := err.Error(); !strings.Contains(msg, "run mask "+name+" ") || !strings.Contains(msg, coord.String()) {
		t.Fatalf("router %v: flipping its bit of %s reported as %q", coord, name, msg)
	}
}

// TestNewRejectsVCCountBeyondMasks: 5·V input VCs must fit the one-word
// request masks; config.Validate rejects a larger V with a reason and New,
// reachable without Validate, panics.
func TestNewRejectsVCCountBeyondMasks(t *testing.T) {
	cfg := config.Default()
	cfg.NoC.VCPolicy = config.VCShared
	cfg.AllowUnsafe = true
	cfg.NoC.VCsPerPort = maxVCs
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Validate rejected the largest supported VC count %d: %v", maxVCs, err)
	}
	New(cfg.NoC, routing.MustNew(cfg.NoC.Routing), vc.MustNewPolicy(cfg.NoC))

	cfg.NoC.VCsPerPort = maxVCs + 1
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "64-bit request mask") {
		t.Errorf("Validate on %d VCs: %v, want the request-mask limit", maxVCs+1, err)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "noc: 5·V input VCs exceed the 64-bit request masks") {
			t.Errorf("New with %d VCs: recovered %v, want the request-mask panic", maxVCs+1, r)
		}
	}()
	New(cfg.NoC, routing.MustNew(cfg.NoC.Routing), vc.MustNewPolicy(cfg.NoC))
}

// TestIdleInvariants: an idle router and a blocked injection queue —
// non-empty, its queues bit clear — are not visited, so a lost wake is a
// silent hang. On a saturated network — where both are everywhere — the three
// events that end such a sleep are applied by hand *without* their wake, and
// CheckInvariants must name the sleeper and what it slept through.
func TestIdleInvariants(t *testing.T) {
	for _, m := range []struct {
		name string
		// mutate corrupts one sleeper of n and returns how the error must
		// name it.
		mutate func(t *testing.T, n *Network) string
		want   string
	}{
		{
			name: "return a credit",
			mutate: func(t *testing.T, n *Network) string {
				for i := range n.routers {
					rt := &n.routers[i]
					for idx := range rt.vcs {
						ivc := &rt.vcs[idx]
						if !n.idle.has(i) || ivc.buf.len() == 0 || !ivc.routed || ivc.route == mesh.Local || ivc.outVC == -1 {
							continue
						}
						// What finishCycle's credit application does, minus
						// clearing the router's idle bit.
						op := &rt.out[ivc.route]
						op.credits[ivc.outVC]++
						rt.credOK |= 1 << idx
						return fmt.Sprintf("router %v is idle", rt.coord)
					}
				}
				t.Fatal("no idle router waits for a credit")
				return ""
			},
			want: "the credit wake was lost",
		},
		{
			name: "push into an empty VC",
			mutate: func(t *testing.T, n *Network) string {
				for i := range n.routers {
					rt := &n.routers[i]
					// A local VC: no upstream port keeps credits for it.
					for idx := int(mesh.Local) * n.vcs; idx < len(rt.vcs); idx++ {
						if !n.idle.has(i) || rt.bufFlits == 0 || rt.vcs[idx].buf.len() != 0 {
							continue
						}
						// enqueue, minus clearing the router's idle bit.
						p := mkPacket(1<<50, packet.ReadRequest, 0, rt.id, n.cycle)
						n.enqueue(rt, idx, packet.Flit{Pkt: p, Head: true, Tail: true})
						n.idle.set(i)
						return fmt.Sprintf("router %v is idle", rt.coord)
					}
				}
				t.Fatal("no idle router has an empty input VC")
				return ""
			},
			want: "the wake of a push into an empty VC was lost",
		},
		{
			name: "pop a Local VC",
			mutate: func(t *testing.T, n *Network) string {
				for id := range n.inj {
					q := &n.inj[id]
					if q.empty() || n.queues.has(id) {
						continue
					}
					rt := &n.routers[id]
					r := n.injRng[id][q.Front().Class()]
					if q.sent > 0 {
						r = vc.Range{Lo: q.vc, Hi: q.vc + 1}
					}
					for v := r.Lo; v < r.Hi; v++ {
						ivc := &rt.in[mesh.Local][v]
						// A body flit: popping it releases no per-packet state.
						if f := ivc.buf.front().flit; f.Head || f.Tail {
							continue
						}
						// traverse's pop, minus its `queues.set`.
						ivc.buf.pop()
						rt.bufFlits--
						ivc.readyAt = ivc.buf.frontArrived() + n.pipeDelay
						if ivc.buf.len() == 0 {
							rt.occ &^= 1 << (int(mesh.Local)*n.vcs + v)
						}
						return fmt.Sprintf("injection queue of node %d is blocked", id)
					}
				}
				t.Fatal("no blocked queue faces a local VC with a body flit at its front")
				return ""
			},
			want: "the unblock of a Local pop was lost",
		},
	} {
		t.Run(m.name, func(t *testing.T) {
			n := loadedNet(t, 1)
			who := m.mutate(t, n)
			err := n.CheckInvariants()
			if err == nil {
				t.Fatal("mutation not detected")
			}
			if !strings.Contains(err.Error(), who) || !strings.Contains(err.Error(), m.want) {
				t.Errorf("error %q does not name %q and %q", err, who, m.want)
			}
		})
	}
}
