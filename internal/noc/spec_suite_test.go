// The specification suite: the kernel and the model (spec_test.go) are
// driven with the same seeded traffic and compared every cycle — each sink
// call, each packet's InjectedAt and EjectedAt, the flits in flight, each
// node's injection space — and at the end on the per-class link flit counts. A mismatch names the first
// cycle, packet and field that differ.
package noc_test

import (
	"fmt"
	"testing"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/noc"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/rng"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/vc"
)

// specModel is the model as the suite drives it.
type specModel interface {
	fabric
	linkFlits() [packet.NumClasses][]int64
}

// fabric is what the endpoint stubs need of an interconnect; the kernel's
// noc.Interconnect and the model both provide it.
type fabric interface {
	Inject(p *packet.Packet) bool
	InjectSpace(node mesh.NodeID) int
	SetSink(node mesh.NodeID, s noc.Sink)
	SetInjectWake(node mesh.NodeID, wake func())
	SetStage(fn func(node int) bool)
	Step()
	FlitsInFlight() int
}

func (s *specNet) linkFlits() [packet.NumClasses][]int64 { return s.links }

func (d *specDual) linkFlits() [packet.NumClasses][]int64 {
	var sum [packet.NumClasses][]int64
	for c := range sum {
		sum[c] = make([]int64, len(d.req.links[c]))
		for i := range sum[c] {
			sum[c][i] = d.req.links[c][i] + d.rep.links[c][i]
		}
	}
	return sum
}

// specEvent is one thing the endpoints of a system saw: a sink call (node,
// packet, flit, accepted, and a tail's EjectedAt) or, logged after the
// cycle, a packet whose head entered the network (its InjectedAt).
type specEvent struct {
	field     string // "sink" or "InjectedAt"
	pkt       uint64
	node, seq int
	ok        bool
	at        int64
}

func (e specEvent) String() string {
	if e.field == "" {
		return "nothing"
	}
	return fmt.Sprintf("%s pkt %d node %d seq %d accepted %t at %d", e.field, e.pkt, e.node, e.seq, e.ok, e.at)
}

// specSide is one of the two systems a comparison drives — the kernel or
// the model — with its clock and what its endpoints saw this cycle.
type specSide struct {
	fab     fabric
	now     int64
	waiting []*packet.Packet // accepted by Inject, head not yet in the network
	events  []specEvent
}

// inject offers p, created with InjectedAt -1, to the fabric.
func (sd *specSide) inject(p *packet.Packet) bool {
	if !sd.fab.Inject(p) {
		return false
	}
	sd.waiting = append(sd.waiting, p)
	return true
}

func (sd *specSide) newPacket(id uint64, typ packet.Type, src, dst int) *packet.Packet {
	return &packet.Packet{ID: id, Type: typ, Src: src, Dst: dst, Flits: packet.Length(typ), CreatedAt: sd.now, InjectedAt: -1}
}

// sink installs decide as node's sink, logging every call.
func (sd *specSide) sink(node int, decide func(f packet.Flit) bool) {
	sd.fab.SetSink(mesh.NodeID(node), func(f packet.Flit) bool {
		ok := decide(f)
		e := specEvent{field: "sink", pkt: f.Pkt.ID, node: node, seq: f.Seq, ok: ok, at: -1}
		if f.Tail {
			e.at = f.Pkt.EjectedAt
		}
		sd.events = append(sd.events, e)
		return ok
	})
}

// step runs one cycle, then logs the packets whose heads entered the
// network in it.
func (sd *specSide) step() {
	sd.fab.Step()
	kept := sd.waiting[:0]
	for _, p := range sd.waiting {
		if p.InjectedAt < 0 {
			kept = append(kept, p)
			continue
		}
		sd.events = append(sd.events, specEvent{field: "InjectedAt", pkt: p.ID, node: p.Src, at: p.InjectedAt})
	}
	sd.waiting = kept
	sd.now++
}

// specField names the first field on which two events differ.
func specField(a, b specEvent) string {
	switch {
	case a.pkt != b.pkt:
		return "packet ID"
	case a.field != b.field:
		return "event"
	case a.node != b.node:
		return "node"
	case a.seq != b.seq:
		return "flit seq"
	case a.ok != b.ok:
		return "accepted"
	case a.field == "sink":
		return "EjectedAt"
	}
	return a.field
}

// specCompare fails at the first event of the cycle on which the kernel and
// the model differ, naming the packet, the cycle and the field, or at an
// in-flight count or a node's injection space that differs.
func specCompare(t *testing.T, cycle int64, nodes int, k, m *specSide) {
	t.Helper()
	for i := 0; i < max(len(k.events), len(m.events)); i++ {
		var a, b specEvent
		if i < len(k.events) {
			a = k.events[i]
		}
		if i < len(m.events) {
			b = m.events[i]
		}
		if a != b {
			pkt := a.pkt
			if a.field == "" {
				pkt = b.pkt
			}
			t.Fatalf("cycle %d, packet %d, %s: kernel %v; model %v", cycle, pkt, specField(a, b), a, b)
		}
	}
	if kf, mf := k.fab.FlitsInFlight(), m.fab.FlitsInFlight(); kf != mf {
		t.Fatalf("cycle %d, FlitsInFlight: kernel %d, model %d", cycle, kf, mf)
	}
	for node := mesh.NodeID(0); int(node) < nodes; node++ {
		if ks, ms := k.fab.InjectSpace(node), m.fab.InjectSpace(node); ks != ms {
			t.Fatalf("cycle %d, node %d, InjectSpace: kernel %d, model %d", cycle, node, ks, ms)
		}
	}
	k.events, m.events = k.events[:0], m.events[:0]
}

// specCase is one design point the kernel is held to the model on.
type specCase struct {
	name         string
	cfg          config.NoC
	asg          vc.Assigner // nil for a dual
	pipe, period int
	refuse       bool // open loop: the sinks refuse on a seeded schedule
	closed       bool // closed loop through the stub stage (installLoop)
	spans        bool // the kernel runs observed, with a rate-0 span collector

	// from, when set, is where the kernel starts: built for this routing
	// and, on one network, fromAsg, run under open-loop traffic, then Reset
	// and Rewired to the case's own routing and assigner.
	from    config.Routing
	fromAsg vc.Assigner
}

const (
	specTraffic = 300  // cycles of traffic
	specDrain   = 3000 // open loop: at most this many more cycles to drain
)

// runSpec drives the kernel and the model with the same seeded traffic and
// compares them every cycle, then the per-class link flit counts.
func runSpec(t *testing.T, c specCase) {
	alg := routing.MustNew(c.cfg.Routing)
	opts := []noc.Option{noc.WithPipelineDelay(c.pipe), noc.WithLinkPeriod(c.period)}
	kAlg, kAsg := alg, c.asg
	if c.from != "" {
		kAlg, kAsg = routing.MustNew(c.from), c.fromAsg
	}
	var kernel noc.Interconnect
	var model specModel
	if c.asg == nil {
		kernel, model = noc.NewDual(c.cfg, kAlg, opts...), newSpecDual(c.cfg, alg, c.pipe, c.period)
	} else {
		kernel, model = noc.New(c.cfg, kAlg, kAsg, opts...), newSpecNet(c.cfg, alg, c.asg, c.pipe, c.period, specTicks(c.cfg))
	}
	if c.from != "" {
		prime := &specSide{fab: kernel}
		traffic := openLoop(prime, c.cfg.Width*c.cfg.Height, false)
		for range specTraffic {
			traffic()
			prime.step()
		}
		kernel.Reset(nil)
		kernel.Rewire(alg, c.asg)
	}
	kernel.EnableStats(true)
	if c.spans {
		sp, err := telemetry.NewSpans(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		kernel.SetSpans(sp)
	}
	k, m := &specSide{fab: kernel}, &specSide{fab: model}
	var traffic [2]func()
	for i, sd := range []*specSide{k, m} {
		if c.closed {
			installLoop(sd, c.cfg.Width, c.cfg.Height)
		} else {
			traffic[i] = openLoop(sd, c.cfg.Width*c.cfg.Height, c.refuse)
		}
	}
	for cyc := int64(0); cyc < specTraffic+specDrain; cyc++ {
		if cyc >= specTraffic && (c.closed || kernel.FlitsInFlight() == 0 || kernel.Quiescent(100)) {
			break
		}
		for i, sd := range []*specSide{k, m} {
			if cyc < specTraffic && traffic[i] != nil {
				traffic[i]()
			}
			sd.step()
		}
		specCompare(t, cyc, c.cfg.Width*c.cfg.Height, k, m)
	}
	if !c.closed && kernel.FlitsInFlight() != 0 {
		t.Logf("%d flits deadlocked", kernel.FlitsInFlight())
	}
	got, want := kernel.Stats().LinkFlits, model.linkFlits()
	for cls := range want {
		for i := range want[cls] {
			if got[cls][i] != want[cls][i] {
				t.Fatalf("LinkFlits[%s][%d]: kernel %d, model %d", packet.Class(cls), i, got[cls][i], want[cls][i])
			}
		}
	}
}

// openLoop installs sd's sinks, refusing a third of the flits on a seeded
// schedule when refuse is set, and returns its traffic: every cycle each
// node offers a packet of a random type to a random node with probability
// 1/8, dropped when refused.
func openLoop(sd *specSide, nodes int, refuse bool) func() {
	for node := 0; node < nodes; node++ {
		sd.sink(node, func(f packet.Flit) bool {
			x := uint64(sd.now)*0x9E3779B97F4A7C15 + uint64(node)*0xC2B2AE3D27D4EB4F + f.Pkt.ID*0x165667B19E3779F9
			return !refuse || (x^x>>29)%3 != 0
		})
	}
	r := rng.New(99)
	id := uint64(0)
	return func() {
		for src := 0; src < nodes; src++ {
			if r.Intn(8) != 0 {
				continue
			}
			id++
			sd.inject(sd.newPacket(id, packet.Type(r.Intn(int(packet.NumTypes))), src, r.Intn(nodes)))
		}
	}
}

// The closed loop's stub endpoints: the bottom row's nodes are MCs, the rest
// cores. A core keeps up to loopOutstanding requests to random MCs in
// flight; an MC answers each request loopLatency cycles after its tail
// arrives and refuses flits while loopQueue requests wait for service or
// injection. An endpoint leaves the tick walk when only a wake can help it:
// a refused Inject (the inject wake) or a core or MC with nothing to do (a
// tail at its sink).
const (
	loopOutstanding = 4
	loopLatency     = 10
	loopQueue       = 3
)

type loopNode struct {
	r    *rng.Stream
	mc   bool
	out  int    // core: requests in flight
	seq  uint64 // core: requests issued
	held []loopReq
	box  []*packet.Packet // accepted by no Inject yet, oldest first
}

type loopReq struct {
	due int64
	req *packet.Packet
}

func installLoop(sd *specSide, width, height int) {
	nodes := make([]loopNode, width*height)
	var mcs []int
	for i := range nodes {
		nodes[i].r = rng.New(7 + uint64(i))
		if nodes[i].mc = i >= (height-1)*width; nodes[i].mc {
			mcs = append(mcs, i)
		}
	}
	for i := range nodes {
		nd := &nodes[i]
		sd.sink(i, func(f packet.Flit) bool {
			if !nd.mc {
				if f.Tail {
					nd.out--
				}
				return true
			}
			if len(nd.held)+len(nd.box) >= loopQueue {
				return false
			}
			if f.Tail {
				nd.held = append(nd.held, loopReq{sd.now + loopLatency, f.Pkt})
			}
			return true
		})
		sd.fab.SetInjectWake(mesh.NodeID(i), func() {}) // the stage call the wake brings retries
	}
	sd.fab.SetStage(func(node int) bool {
		nd := &nodes[node]
		if nd.mc {
			for len(nd.held) > 0 && nd.held[0].due <= sd.now {
				q := nd.held[0].req
				nd.box = append(nd.box, sd.newPacket(q.ID|1<<63, q.Type.Reply(), node, q.Src))
				nd.held = nd.held[1:]
			}
		} else if nd.out+len(nd.box) < loopOutstanding && nd.r.Intn(4) == 0 {
			typ := packet.ReadRequest
			if nd.r.Intn(3) == 0 {
				typ = packet.WriteRequest
			}
			nd.seq++
			nd.box = append(nd.box, sd.newPacket(uint64(node)<<32|nd.seq, typ, node, mcs[nd.r.Intn(len(mcs))]))
		}
		for len(nd.box) > 0 && sd.inject(nd.box[0]) {
			nd.box = nd.box[1:]
			if !nd.mc {
				nd.out++
			}
		}
		switch {
		case len(nd.box) > 0:
			return false
		case nd.mc:
			return len(nd.held) > 0
		}
		return nd.out < loopOutstanding
	})
}

// specAssigner builds the named VC assigner for cfg's VC count: a policy,
// or the link-aware partial-monopolizing assigner with a synthetic mixing
// predicate under which neighbouring links disagree.
func specAssigner(name string, cfg config.NoC) vc.Assigner {
	switch name {
	case "linkaware":
		return vc.LinkAware{Total: cfg.VCsPerPort, Mixed: func(l mesh.Link) bool { return (int(l.From)+int(l.Dir))%2 == 0 }}
	case "asymmetric":
		cfg.AsymmetricRequestVCs = max(1, cfg.VCsPerPort/4)
	case "injsplit":
		cfg.VCPolicy = config.VCSplit
		return injSplit{vc.MustNewPolicy(cfg), cfg.VCsPerPort}
	}
	cfg.VCPolicy = config.VCPolicy(name)
	return vc.MustNewPolicy(cfg)
}

// injSplit is the split policy with each class held to half the injection
// VCs too, which no assigner of package vc does: they all give injection
// every VC.
type injSplit struct {
	vc.Assigner
	total int
}

func (a injSplit) RangeFor(l mesh.Link, o mesh.Orientation, cls packet.Class) vc.Range {
	if o != mesh.LocalPort {
		return a.Assigner.RangeFor(l, o, cls)
	}
	if cls == packet.Request {
		return vc.Range{Lo: 0, Hi: a.total / 2}
	}
	return vc.Range{Lo: a.total / 2, Hi: a.total}
}

func specNoC(size, vcs int, rt config.Routing) config.NoC {
	cfg := config.Default().NoC
	cfg.Width, cfg.Height, cfg.VCsPerPort, cfg.Routing = size, size, vcs, rt
	return cfg
}

// TestSpecOpenLoop holds the kernel to the model under open-loop traffic:
// every routing × VC policy (and the link-aware assigner) × 2 and 4 VCs,
// rotating through 4×4, 6×6 and 8×8 meshes, pipeline delays 1 and 2 and
// refusing sinks; once observed, with a rate-0 span collector; and once on
// one network with half-width links (link period 2).
func TestSpecOpenLoop(t *testing.T) {
	var cases []specCase
	k := 0
	for _, rt := range config.Routings() {
		for _, pol := range []string{"split", "asymmetric", "monopolized", "partial", "shared", "linkaware"} {
			for _, v := range []int{2, 4} {
				cfg := specNoC([]int{4, 6, 8}[k%3], v, rt)
				pipe, refuse := 1+(k/3)%2, (k/2)%2 == 0
				cases = append(cases, specCase{
					name: fmt.Sprintf("%dx%d/%s/%s/v=%d/pd=%d/refuse=%t", cfg.Width, cfg.Height, rt, pol, v, pipe, refuse),
					cfg:  cfg, asg: specAssigner(pol, cfg), pipe: pipe, period: 1, refuse: refuse,
				})
				k++
			}
		}
	}
	cfg := specNoC(8, 2, config.RoutingXY)
	cases = append(cases,
		specCase{name: "observed", cfg: cfg, asg: specAssigner("split", cfg), pipe: 2, period: 1, refuse: true, spans: true},
		specCase{name: "8x8/xy/split/v=2/pd=2/period=2", cfg: cfg, asg: specAssigner("split", cfg), pipe: 2, period: 2, refuse: true})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runSpec(t, c)
		})
	}
}

// TestSpecRewire holds a rewired kernel to the model: a network built for
// one design point and run under traffic, then Reset and Rewired to another,
// must step as the model of the other does. The pairs cross every routing
// and change the VC ranges on the links and at injection (injsplit holds
// each class to half the injection VCs); two physical subnets change their
// routing.
func TestSpecRewire(t *testing.T) {
	v4, v2 := specNoC(8, 4, config.RoutingXY), specNoC(8, 2, config.RoutingXY)
	at := func(cfg config.NoC, rt config.Routing) config.NoC { cfg.Routing = rt; return cfg }
	var cases []specCase
	for _, p := range []struct {
		cfg            config.NoC
		from, to       config.Routing
		fromPol, toPol string
		refuse, closed bool
	}{
		{v4, config.RoutingXY, config.RoutingYX, "split", "monopolized", true, false},
		{v4, config.RoutingYX, config.RoutingXYYX, "monopolized", "partial", false, false},
		{v4, config.RoutingXYYX, config.RoutingXY, "linkaware", "injsplit", true, false},
		{v4, config.RoutingXY, config.RoutingYX, "injsplit", "asymmetric", false, false},
		{v2, config.RoutingXY, config.RoutingYX, "split", "monopolized", false, true},
	} {
		cfg := at(p.cfg, p.to)
		cases = append(cases, specCase{
			name: fmt.Sprintf("%s/%s->%s/%s/v=%d/closed=%t", p.from, p.fromPol, p.to, p.toPol, cfg.VCsPerPort, p.closed),
			cfg:  cfg, asg: specAssigner(p.toPol, cfg), pipe: 2, period: 1, refuse: p.refuse, closed: p.closed,
			from: p.from, fromAsg: specAssigner(p.fromPol, at(p.cfg, p.from)),
		})
	}
	for _, closed := range []bool{false, true} {
		cases = append(cases, specCase{
			name: fmt.Sprintf("dual/yx->xy/closed=%t", closed),
			cfg:  v4, pipe: 2, period: 1, refuse: true, closed: closed, from: config.RoutingYX,
		})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runSpec(t, c)
		})
	}
}

// TestSpecDual holds two class-dedicated subnets to the model's, at full
// width and at half width (link period 2), open loop with refusing sinks and
// closed loop, where the reply subnet's sinks and wakes bring endpoints back
// to the request subnet's tick walk.
func TestSpecDual(t *testing.T) {
	cfg := specNoC(8, 4, config.RoutingXY)
	for _, period := range []int{1, 2} {
		for _, closed := range []bool{false, true} {
			c := specCase{cfg: cfg, pipe: 2, period: period, refuse: true, closed: closed}
			t.Run(fmt.Sprintf("period=%d/closed=%t", period, closed), func(t *testing.T) {
				t.Parallel()
				runSpec(t, c)
			})
		}
	}
}

// TestSpecClosedLoop holds the kernel to the model through the stub stage:
// the Table 2 network (8×8, XY, split, 2 VCs) and a 6×6 XY-YX network with
// partial monopolizing over 4 VCs and a one-cycle router.
func TestSpecClosedLoop(t *testing.T) {
	table2, xyyx := specNoC(8, 2, config.RoutingXY), specNoC(6, 4, config.RoutingXYYX)
	for _, c := range []specCase{
		{name: "8x8/xy/split/v=2", cfg: table2, asg: specAssigner("split", table2), pipe: 2, period: 1, closed: true},
		{name: "6x6/xy-yx/partial/v=4", cfg: xyyx, asg: specAssigner("partial", xyyx), pipe: 1, period: 1, closed: true},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			runSpec(t, c)
		})
	}
}

// TestStepperEquivalenceNetworkLevel holds the Table 2 network (8×8, 2 VCs)
// to the model on five variants — three routing and VC policy pairings,
// half-width links, and a one-cycle router under the shared policy — each
// built from configurations carrying the retired Workers values 1 and 4,
// and at 4 once more observed by a rate-0 span collector. (The names are
// kept from when it held the lane-parallel kernel, pooled and stepping, to
// the retired reference stepper.)
func TestStepperEquivalenceNetworkLevel(t *testing.T) {
	variants := []struct {
		rt           config.Routing
		pol          string
		pipe, period int
	}{
		{config.RoutingXY, "split", 2, 1},
		{config.RoutingYX, "monopolized", 2, 1},
		{config.RoutingXYYX, "partial", 2, 1},
		{config.RoutingXY, "split", 2, 2},
		{config.RoutingXY, "shared", 1, 1},
	}
	kernels := []struct {
		name    string
		workers int
		spans   bool
	}{
		{"workers=1", 1, false},
		{"workers=4,pool", 4, false},
		{"workers=4,stepping", 4, true},
	}
	for _, v := range variants {
		t.Run(string(v.rt)+"/"+v.pol, func(t *testing.T) {
			for _, k := range kernels {
				cfg := specNoC(8, 2, v.rt)
				cfg.Workers = k.workers
				c := specCase{cfg: cfg, asg: specAssigner(v.pol, cfg), pipe: v.pipe, period: v.period, spans: k.spans}
				t.Run(k.name, func(t *testing.T) {
					t.Parallel()
					runSpec(t, c)
				})
			}
		})
	}
}
