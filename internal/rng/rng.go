// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator. Every stochastic component of the
// simulation draws from an explicitly seeded stream so that identical
// configurations produce identical results, which the test suite and the
// experiment harness rely on.
//
// The generator is SplitMix64 (Steele, Lea, Flood; "Fast Splittable
// Pseudorandom Number Generators", OOPSLA 2014). It is allocation-free, has a
// 64-bit state, passes BigCrush when used as described, and is trivially
// splittable: independent substreams are derived with Split.
package rng

import "math"

// Stream is a deterministic SplitMix64 random stream. The zero value is a
// valid stream seeded with 0; use New to seed explicitly.
type Stream struct {
	state uint64
}

// New returns a stream seeded with seed.
func New(seed uint64) *Stream {
	return &Stream{state: seed}
}

// Reseed rewinds s, in place, to the stream New(seed) returns.
func (s *Stream) Reseed(seed uint64) { s.state = seed }

// NewSlab returns n streams in one allocation, the i-th seeded with seed(i),
// for a caller that builds many at once and hands each out by pointer.
func NewSlab(n int, seed func(i int) uint64) []Stream {
	s := make([]Stream, n)
	for i := range s {
		s[i].state = seed(i)
	}
	return s
}

// golden gamma constant for SplitMix64.
const gamma = 0x9e3779b97f4a7c15

// Uint64 returns the next 64 pseudo-random bits.
func (s *Stream) Uint64() uint64 {
	s.state += gamma
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives an independent substream. The parent stream advances by one
// draw; the child is seeded from that draw so parent and child sequences do
// not overlap in practice.
func (s *Stream) Split() *Stream {
	return &Stream{state: s.Uint64()}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	return int(s.Uint64() % uint64(n))
}

// Uint64n returns a uniform uint64 in [0, n). It panics if n == 0.
func (s *Stream) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with zero n")
	}
	return s.Uint64() % n
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Stream) Float64() float64 {
	return float64(s.Uint64()>>11) / float64(1<<53)
}

// Chance returns the threshold of a Bernoulli(p) draw for Hit, ceil(p·2^53)
// with p clamped to [0, 1] (NaN as 0). Float64 is k·2^-53 for k < 2^53, and
// p·2^53 is exact, so Float64() < p exactly when k < Chance(p).
func Chance(p float64) uint64 {
	switch {
	case p >= 1:
		return 1 << 53
	case p > 0:
		return uint64(math.Ceil(p * (1 << 53)))
	}
	return 0
}

// Hit draws once: Hit(Chance(p)) consumes and returns what Float64() < p does.
func (s *Stream) Hit(t uint64) bool { return s.Uint64()>>11 < t }

// Bool returns true with probability p.
func (s *Stream) Bool(p float64) bool {
	return s.Hit(Chance(p))
}

// Geometric returns a geometrically distributed int >= 1 with mean 1/p
// (number of Bernoulli(p) trials up to and including the first success),
// capped at max to bound pathological draws. p must be in (0, 1].
func (s *Stream) Geometric(p float64, max int) int {
	if p <= 0 || p > 1 {
		panic("rng: Geometric needs p in (0,1]")
	}
	return s.GeometricChance(Chance(p), max)
}

// GeometricChance is Geometric(p, max) for the threshold t = Chance(p).
func (s *Stream) GeometricChance(t uint64, max int) int {
	n := 1
	for !s.Hit(t) && n < max {
		n++
	}
	return n
}

// Perm fills dst with a pseudo-random permutation of [0, len(dst)).
func (s *Stream) Perm(dst []int) {
	for i := range dst {
		dst[i] = i
	}
	for i := len(dst) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		dst[i], dst[j] = dst[j], dst[i]
	}
}
