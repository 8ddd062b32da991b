package sim

import "math/bits"

// Divisor divides by a fixed n > 0: with a shift and a mask when n is a
// power of two, which every shipped geometry is, and with / and %
// otherwise. The per-access index maps (L1 set, memory channel and
// router, flit count) use it to keep a hardware division off the hot
// path.
type Divisor struct {
	n     uint64
	shift uint8 // log2 n when pow2
	pow2  bool
}

// NewDivisor returns a Divisor by n. Like the division it replaces, a
// Divisor by 0 panics when used.
func NewDivisor(n int) Divisor {
	u := uint64(n)
	return Divisor{n: u, shift: uint8(bits.TrailingZeros64(u)), pow2: n > 0 && u&(u-1) == 0}
}

// Quo returns x / n.
func (d Divisor) Quo(x uint64) uint64 {
	if d.pow2 {
		return x >> d.shift
	}
	return x / d.n
}

// Rem returns x % n.
func (d Divisor) Rem(x uint64) uint64 {
	if d.pow2 {
		return x & (d.n - 1)
	}
	return x % d.n
}
