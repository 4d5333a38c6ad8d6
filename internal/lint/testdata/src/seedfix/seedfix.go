// Package seedfix is a lint fixture exercising the seedflow rules.
// Marker comments of the form `want "substring"` mark expected findings.
package seedfix

import "gpgpunoc/internal/rng"

// Good provenance: rng.New with an explicit seed, Split children, pointers.
type goodHarness struct {
	r *rng.Stream
}

func Good(seed uint64) *goodHarness {
	h := &goodHarness{r: rng.New(seed)}
	child := h.r.Split()
	_ = child.Uint64()
	return h
}

// GoodGoroutine hands each goroutine its own Split child declared inside the
// spawning expression's scope — no capture of an outer stream.
func GoodGoroutine(seed uint64, n int) {
	parent := rng.New(seed)
	for i := 0; i < n; i++ {
		child := parent.Split()
		_ = child
		go func(r *rng.Stream) { // want "goroutine scheduling order is nondeterministic"
			_ = r.Uint64()
		}(child)
	}
}

// Zero-value and copied streams.
func ZeroValues() uint64 {
	var s rng.Stream     // want "declared as a value rng.Stream"
	p := new(rng.Stream) // want "new(rng.Stream) yields a zero-seeded stream"
	q := &rng.Stream{}   // want "rng.Stream composite literal bypasses seeding"
	r := rng.Stream{}    // want "rng.Stream composite literal bypasses seeding" "declared as a value rng.Stream"
	return s.Uint64() + p.Uint64() + q.Uint64() + r.Uint64()
}

// valueField holds a stream by value: the zero value is live the moment the
// struct is allocated, and copying the struct forks the sequence.
type valueField struct {
	r rng.Stream // want "declared as a value rng.Stream"
}

func (v *valueField) Draw() uint64 { return v.r.Uint64() }

// CapturedByGoroutine shares one stream between the spawner and the
// goroutine: draw interleaving then depends on the scheduler.
func CapturedByGoroutine(seed uint64) {
	r := rng.New(seed)
	go func() { // want "goroutine scheduling order is nondeterministic"
		_ = r.Uint64() // want "goroutine closure captures rng stream variable"
	}()
	_ = r.Uint64()
}
