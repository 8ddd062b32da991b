package sim

import "math"

// RNG is a small, fast, deterministic pseudo-random generator
// (xorshift64*). The simulator cannot depend on math/rand global state:
// every component that needs randomness owns an RNG seeded from the run
// configuration, so results are reproducible bit-for-bit.
type RNG struct {
	state uint64
}

// NewRNG returns a generator for the given seed. Seed zero is remapped to a
// fixed non-zero constant because xorshift has a zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a uniform integer in [0, n). n must be positive.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Hit(ChanceOf(p))
}

// Chance is a probability pre-scaled for Hit: a draw hits when its 53
// random bits, read as an integer k, are below the threshold. Float64
// returns k/2^53, so for 0<p<1 the threshold ceil(p·2^53) makes Hit
// exactly Float64() < p without converting k. never and always, the
// only values above any threshold, are the certain outcomes that
// consume no draw.
type Chance uint64

const (
	never  Chance = 1 << 63   // p <= 0
	always Chance = never + 1 // p >= 1
)

// ChanceOf converts a probability once so hot paths can call Hit. As
// with Bool, p <= 0 and p >= 1 consume no random draw; a NaN p draws
// once and never hits, as Float64() < NaN is false.
func ChanceOf(p float64) Chance {
	switch {
	case p <= 0:
		return never
	case p >= 1:
		return always
	case p != p:
		return 0
	}
	return Chance(math.Ceil(p * (1 << 53)))
}

// Hit draws (unless c is certain either way) and reports whether the
// draw falls under c: true with the probability c was made from.
func (r *RNG) Hit(c Chance) bool {
	if c >= never {
		return c == always
	}
	return r.Uint64()>>11 < uint64(c)
}

// Split derives an independent generator; useful for giving each core its
// own stream from one master seed.
func (r *RNG) Split() *RNG {
	return NewRNG(r.Uint64() ^ 0xA5A5A5A55A5A5A5A)
}
