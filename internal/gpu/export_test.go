package gpu

// UseSteppedLoop makes RunContext step every cycle, never fast-forwarding:
// the oracle for the fast-forward equivalence suite. Call before the run.
func (s *Simulator) UseSteppedLoop() { s.stepped = true }
