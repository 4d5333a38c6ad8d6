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
func loadedNet(t *testing.T) *Network {
	t.Helper()
	n := newTestNet(t, config.RoutingXY, config.VCSplit)
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

// TestMaskInvariants: the request masks and the pipeline-gate stamps are
// redundant summaries the allocators trust blindly, so CheckInvariants must
// catch any single flipped bit in any mask of any router, and any skewed
// stamp, and say which router and which mask.
func TestMaskInvariants(t *testing.T) {
	n := loadedNet(t)
	populated := map[string]bool{}
	for i := range n.routers {
		rt := &n.routers[i]
		masks := map[string]*uint64{"occ": &rt.occ, "rcDone": &rt.rcDone, "credOK": &rt.credOK}
		for d := range rt.want {
			masks["want["+mesh.Direction(d).String()+"]"] = &rt.want[d]
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
	// 3 scalar masks, 5 want, 4x2 vaWait, and the stamps: the load must
	// have exercised every one somewhere, or the flips above only ever
	// turned bits on.
	if len(populated) != 3+mesh.NumPorts+mesh.NumLinkDirs*packet.NumClasses+1 {
		t.Errorf("load left some masks empty on every router; populated: %v", populated)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("invariants broken after every corruption was undone: %v", err)
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
