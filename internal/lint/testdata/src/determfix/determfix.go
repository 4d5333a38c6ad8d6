// Package determfix is a lint fixture exercising the determinism rules.
// Marker comments of the form `want "substring"` mark expected findings.
package determfix

import (
	"fmt"
	_ "math/rand" // want "import of math/rand is nondeterministic"
	"time"
)

// Clock aliases must not hide the wall clock from the check.
import clk "time"

// WallClock reads the wall clock several ways.
func WallClock() time.Duration {
	start := time.Now()         // want "time.Now reads the wall clock"
	_ = clk.Now()               // want "time.Now reads the wall clock"
	clk.Sleep(time.Millisecond) // want "time.Sleep reads the wall clock"
	return time.Since(start)    // want "time.Since reads the wall clock"
}

// NotTheRealClock must not be flagged: same method names, different package.
type fakeClock struct{}

func (fakeClock) Now() int   { return 0 }
func (fakeClock) Since() int { return 0 }

func UsesFakeClock() int {
	var c fakeClock
	return c.Now() + c.Since()
}

// MapIteration must be flagged; slice iteration must not.
func MapIteration(m map[string]int, s []int) int {
	total := 0
	for _, v := range m { // want "map iteration order is nondeterministic"
		total += v
	}
	for range m { // want "map iteration order is nondeterministic"
		total++
	}
	for _, v := range s {
		total += v
	}
	return total
}

// Suppressed is covered by a justified directive and must not be reported.
func Suppressed(m map[string]bool) int {
	n := 0
	//noclint:determinism order-insensitive count
	for range m {
		n++
	}
	return n
}

// BadDirective has a directive with no justification, which is a finding in
// its own right; the finding it meant to cover stands.
func BadDirective(m map[string]bool) int {
	n := 0
	/* want "needs a justification" */ //noclint:determinism
	for range m {                      // want "map iteration order is nondeterministic"
		n++
	}
	return n
}

// TypoDirective names no rule: the directive is reported and the finding it
// meant to cover stands.
func TypoDirective(m map[string]bool) int {
	n := 0
	/* want "//noclint:determinsm names no rule" */ //noclint:determinsm order-insensitive count
	for range m {                                   // want "map iteration order is nondeterministic"
		n++
	}
	return n
}

// TimeTypesOK: referring to time types and constants is fine — only the
// wall-clock reads are banned.
func TimeTypesOK(d time.Duration) string { return fmt.Sprint(d) }

// SpawnsGoroutine must be flagged: goroutine scheduling order is not fixed.
func SpawnsGoroutine(ch chan int) {
	go func() { ch <- 1 }() // want "goroutine scheduling order is nondeterministic"
}

// SuppressedGoroutine carries a justified directive and must not be reported.
func SuppressedGoroutine(ch chan int) {
	//noclint:determinism effects merge in fixed order downstream
	go func() { ch <- 1 }()
}

// LeaseExpiry mirrors the fabric coordinator's scheduler pattern: a
// wall-clock read justified by a directive (lease lifetimes are real
// elapsed time, not simulation state). The deadline check is the method
// (time.Time).After, a pure comparison, and is not flagged; the map range
// is, as the directive covers only its own line and the next, and expiry
// must process leases in sorted order. Production fabric files carry an
// allowlist entry instead of per-line directives.
type leaseRec struct{ expires time.Time }

func LeaseExpiry(leases map[string]leaseRec) []string {
	//noclint:determinism lease deadlines are wall-clock by design, never simulation input
	now := time.Now()
	var expired []string
	for id, l := range leases { // want "map iteration order is nondeterministic"
		if now.After(l.expires) {
			expired = append(expired, id)
		}
	}
	return expired
}

// ServeInBackground mirrors the fabric/obs HTTP servers: a background
// accept-loop goroutine off the simulation path, suppressed with a reason.
func ServeInBackground(serve func() error) {
	//noclint:determinism HTTP accept loop never touches simulation state
	go func() { _ = serve() }()
}

// ClockAsValue takes the wall clock as a function value: no call, same read.
func ClockAsValue() func() time.Time {
	return time.Now // want "time.Now reads the wall clock"
}

// StaleDirective covers nothing, because a slice iterates in index order:
// a directive that suppresses no finding is itself a finding.
func StaleDirective(s []int) int {
	n := 0
	/* want "suppresses no finding" */ //noclint:determinism order-insensitive count
	for range s {
		n++
	}
	return n
}
