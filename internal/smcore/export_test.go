package smcore

// SleptTicks returns how many Tick calls took the sleeping early-out.
func (s *SM) SleptTicks() int64 { return s.sleptTicks }
