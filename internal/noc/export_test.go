package noc

// UseReferenceStepper switches a freshly built interconnect — a *Network or
// a *Dual, before its first Step — to stepReference, the naive full-scan
// stepper the equivalence suites hold the shipped kernel to. This file is
// the only way to select it.
func UseReferenceStepper(ic Interconnect) {
	switch n := ic.(type) {
	case *Network:
		n.reference = true
	case *Dual:
		n.request.reference = true
		n.reply.reference = true
	default:
		panic("noc: UseReferenceStepper on a foreign Interconnect")
	}
}
