package noc

import (
	"fmt"

	"gpgpunoc/internal/config"
	"gpgpunoc/internal/mesh"
	"gpgpunoc/internal/packet"
	"gpgpunoc/internal/routing"
	"gpgpunoc/internal/stats"
	"gpgpunoc/internal/telemetry"
	"gpgpunoc/internal/vc"
)

// Dual models the two-physical-subnetworks design of prior work ([11] in
// the paper): one physical mesh carries only requests, the other only
// replies, each with half the VC resources of the single-network baseline.
// Section 4.2 compares this against one network with VC separation and finds
// the logical split performs within noise, at half the router/wire cost.
type Dual struct {
	request *Network
	reply   *Network
	merged  *stats.Net
}

// NewInterconnect builds the interconnect cfg describes: one network whose
// VCs asg assigns, or, with PhysicalSubnets, a Dual of class-dedicated
// subnets (half-width ones with SubnetHalfWidth). It is where a design point
// becomes a network: gpu.New and the synthetic harness both build through
// it.
func NewInterconnect(cfg config.NoC, alg routing.Algorithm, asg vc.Assigner, opts ...Option) Interconnect {
	if !cfg.PhysicalSubnets {
		return New(cfg, alg, asg, opts...)
	}
	if cfg.SubnetHalfWidth {
		opts = append(opts, WithLinkPeriod(2))
	}
	return NewDual(cfg, alg, opts...)
}

// NewDual builds two class-dedicated subnets from cfg: each subnet gets
// VCsPerPort/2 VCs and needs no class partitioning internally (a single
// class cannot protocol-deadlock against itself under dimension-order
// routing). By default each subnet keeps full-width channels — the doubled
// router/wire budget the paper's reference [11] pays and Section 4.2
// compares against; pass WithLinkPeriod(2) for an equal-wire-budget split
// with half-width channels.
func NewDual(cfg config.NoC, alg routing.Algorithm, opts ...Option) *Dual {
	sub := cfg
	sub.VCsPerPort = cfg.VCsPerPort / 2
	if sub.VCsPerPort == 0 {
		sub.VCsPerPort = 1
	}
	sub.VCPolicy = config.VCShared
	pol := vc.MustNewPolicy(sub)
	d := &Dual{
		request: New(sub, alg, pol, opts...),
		reply:   New(sub, alg, pol, opts...),
		merged:  stats.NewNet(mesh.New(cfg.Width, cfg.Height)),
	}
	// One ticks mask, the request subnet's, whose Step runs the stage: a
	// sink or inject wake on either subnet wakes the node's endpoint.
	d.reply.ticks = d.request.ticks
	return d
}

func (d *Dual) subnet(cls packet.Class) *Network {
	if cls == packet.Request {
		return d.request
	}
	return d.reply
}

// Inject queues the packet on its class's subnet.
func (d *Dual) Inject(p *packet.Packet) bool { return d.subnet(p.Class()).Inject(p) }

// InjectSpace returns the smaller of the two subnets' injection spaces; the
// caller does not know which class it will inject next, so be conservative.
func (d *Dual) InjectSpace(node mesh.NodeID) int {
	rq, rp := d.request.InjectSpace(node), d.reply.InjectSpace(node)
	if rq < rp {
		return rq
	}
	return rp
}

// SetSink installs the sink on both subnets.
func (d *Dual) SetSink(node mesh.NodeID, s Sink) {
	d.request.SetSink(node, s)
	d.reply.SetSink(node, s)
}

// SetInjectWake installs the wake on both subnets: each calls it after its
// own drain, so a caller refused on one subnet is woken by that subnet,
// whatever the other one is doing.
func (d *Dual) SetInjectWake(node mesh.NodeID, wake func()) {
	d.request.SetInjectWake(node, wake)
	d.reply.SetInjectWake(node, wake)
}

// SetStage installs the stage on the request subnet, whose Step runs it for
// both.
func (d *Dual) SetStage(fn func(node int) bool) { d.request.SetStage(fn) }

// Ticking reads the request subnet's ticks mask, which both subnets wake.
func (d *Dual) Ticking(node mesh.NodeID) bool { return d.request.Ticking(node) }

// Step advances both subnets one cycle, the request subnet first.
func (d *Dual) Step() {
	d.request.Step()
	d.reply.Step()
}

// Cycle returns the completed cycle count.
func (d *Dual) Cycle() int64 { return d.request.Cycle() }

// Stats returns a merged view of both subnets' statistics. The merge is
// recomputed on each call, from each subnet's Stats (which writes its
// window's link flits first); experiments read it once after the run.
func (d *Dual) Stats() *stats.Net {
	d.merged.Reset()
	d.merged.Enabled = d.request.stats.Enabled
	d.merged.Cycles = d.request.stats.Cycles
	d.merged.Merge(d.request.Stats())
	d.merged.Merge(d.reply.Stats())
	return d.merged
}

// EnableStats opens or closes both subnets' measurement windows.
func (d *Dual) EnableStats(on bool) {
	d.request.EnableStats(on)
	d.reply.EnableStats(on)
}

// Reset resets both subnets and, like Network.Reset, leaves the merged
// collector Stats handed out to its holder.
func (d *Dual) Reset(release func(*packet.Packet)) {
	d.request.Reset(release)
	d.reply.Reset(release)
	d.merged = stats.NewNet(d.request.m)
}

// Rewire sets alg on both subnets. Their VC assignment stays the shared
// policy NewDual gave them: a subnet carries one class, so asg, which
// divides VCs between the classes, has nothing to divide there.
func (d *Dual) Rewire(alg routing.Algorithm, _ vc.Assigner) {
	d.request.Rewire(alg, d.request.pol)
	d.reply.Rewire(alg, d.reply.pol)
}

// FlitsInFlight sums both subnets.
func (d *Dual) FlitsInFlight() int {
	return d.request.FlitsInFlight() + d.reply.FlitsInFlight()
}

// AttachTelemetry instruments both subnets with disjoint probe names: the
// request subnet's probes carry the "req." prefix, the reply subnet's
// "rep.". Exporters and Summarize merge the two per link.
func (d *Dual) AttachTelemetry(reg *telemetry.Registry) {
	d.request.attachTelemetry(reg, "req.")
	d.reply.attachTelemetry(reg, "rep.")
}

// SetSpans installs one span collector on both subnets. The sampling hash
// is a pure function of the packet ID, so a transaction's request (on one
// subnet) and reply (on the other) land in the same trace.
func (d *Dual) SetSpans(sp *telemetry.Spans) {
	d.request.SetSpans(sp)
	d.reply.SetSpans(sp)
}

// CheckInvariants validates both subnets, naming the one that failed.
func (d *Dual) CheckInvariants() error {
	if err := d.request.CheckInvariants(); err != nil {
		return fmt.Errorf("noc: request subnet: %w", err)
	}
	if err := d.reply.CheckInvariants(); err != nil {
		return fmt.Errorf("noc: reply subnet: %w", err)
	}
	return nil
}

// Quiescent reports deadlock only if the whole system is stuck: flits exist
// and neither subnet holding any has moved recently.
func (d *Dual) Quiescent(window int64) bool {
	rq, rp := d.request.FlitsInFlight(), d.reply.FlitsInFlight()
	return rq+rp > 0 &&
		(rq == 0 || d.request.stuck(window)) &&
		(rp == 0 || d.reply.stuck(window))
}
