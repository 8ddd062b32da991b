package sim

import (
	"math"
	"testing"
)

// floatBool is the float draw rule Hit replaces: p <= 0 and p >= 1 draw
// nothing, anything else (NaN included) draws once.
func floatBool(r *RNG, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// stateFor returns a state whose next draw has k in its top 53 bits, so
// Hit sees exactly k. It inverts the output multiply and the three
// xorshift steps of Uint64.
func stateFor(k uint64) uint64 {
	const m = 0x2545F4914F6CDD1D
	inv := uint64(m) // Newton's iteration for m^-1 mod 2^64
	for i := 0; i < 6; i++ {
		inv *= 2 - m*inv
	}
	x := (k << 11) * inv
	x = unshiftRight(x, 27)
	x = unshiftLeft(x, 25)
	return unshiftRight(x, 12)
}

func unshiftRight(y uint64, s uint) uint64 {
	x := y
	for i := s; i < 64; i += s {
		x ^= y >> i
	}
	return x
}

func unshiftLeft(y uint64, s uint) uint64 {
	x := y
	for i := s; i < 64; i += s {
		x ^= y << i
	}
	return x
}

// TestChanceMatchesFloat checks that Hit(ChanceOf(p)) and Bool(p) give the
// same result and leave the same RNG state as Float64() < p, draw by
// draw, including the draws either side of each threshold.
func TestChanceMatchesFloat(t *testing.T) {
	ps := []float64{0, -1, 1, 2, math.NaN(), 5e-324, math.Nextafter(1, 0), 0.1, 1.0 / 3}
	pick := NewRNG(99)
	for i := 0; i < 2000; i++ {
		ps = append(ps, pick.Float64())
	}
	for i, p := range ps {
		c := ChanceOf(p)
		hit, viaBool, ref := NewRNG(uint64(i+1)), NewRNG(uint64(i+1)), NewRNG(uint64(i+1))
		for d := 0; d < 64; d++ {
			want := floatBool(ref, p)
			if got := hit.Hit(c); got != want || hit.state != ref.state {
				t.Fatalf("p=%v draw %d: Hit = %v, want %v (state %#x, want %#x)", p, d, got, want, hit.state, ref.state)
			}
			if got := viaBool.Bool(p); got != want || viaBool.state != ref.state {
				t.Fatalf("p=%v draw %d: Bool = %v, want %v", p, d, got, want)
			}
		}
		if c >= never {
			continue
		}
		for _, k := range []uint64{uint64(c) - 1, uint64(c), uint64(c) + 1} {
			if k >= 1<<53 {
				continue // c-1 wrapped (c = 0) or c+1 is past the top draw
			}
			if r := (&RNG{state: stateFor(k)}); r.Uint64()>>11 != k {
				t.Fatalf("stateFor(%d) does not draw %d", k, k)
			}
			a, b := &RNG{state: stateFor(k)}, &RNG{state: stateFor(k)}
			want := b.Float64() < p
			if got := a.Hit(c); got != want || a.state != b.state {
				t.Fatalf("p=%v k=%d (threshold %d): Hit = %v, want %v", p, k, c, got, want)
			}
			if want != (k < uint64(c)) {
				t.Fatalf("p=%v k=%d: Float64() < p = %v, threshold %d", p, k, want, c)
			}
		}
	}
	// NaN keeps Bool's behaviour: one draw, never a hit.
	r, ref := NewRNG(5), NewRNG(5)
	ref.Uint64()
	if r.Bool(math.NaN()) || r.state != ref.state {
		t.Fatal("Bool(NaN) must draw once and return false")
	}
}
