package stats

import (
	"math"
	"math/bits"

	"espnuca/internal/sim"
)

// Zipf samples ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s. Cache-workload locality is classically well approximated
// by Zipf-distributed block popularity; the synthetic workload profiles
// use it to reproduce each application class's reuse behaviour.
//
// The implementation precomputes the CDF and samples by binary search,
// which is exact. A guide table splits [0, 1) into G equal buckets and
// records where each bucket's ranks start, so a draw bisects only its
// own bucket's ranks: one RNG draw and a few comparisons, all near the
// answer, instead of log2(n) probes across a CDF of up to 2 MB.
type Zipf struct {
	cdf []float64
	// guide[b] is the first rank whose CDF reaches b/G, for b = 0..G; a
	// draw u in [b/G, (b+1)/G) has its rank in [guide[b], guide[b+1]].
	// Ranks are held as float64 so the table shares the CDF's allocation.
	guide []float64
	// shift turns a draw's 53 random bits into its bucket: G = 2^(53-shift).
	shift uint
}

// maxGuide caps the guide table at 8 KB. G is a power of two, so a draw's
// bucket ⌊u·G⌋ is exact.
const maxGuide = 1 << 10

// NewZipf builds a sampler over n ranks with exponent s >= 0. n must be
// positive. s = 0 degenerates to uniform.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("stats: Zipf needs positive n")
	}
	g := 1
	for g < n && g < maxGuide {
		g <<= 1
	}
	buf := make([]float64, n+g+1)
	cdf, guide := buf[:n:n], buf[n:]
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	b := 0 // the first bucket whose first rank is not yet known
	for i := range cdf {
		if i < n-1 {
			cdf[i] *= inv
		} else {
			cdf[i] = 1 // guard against rounding
		}
		for ; b <= g && float64(b) <= cdf[i]*float64(g); b++ {
			guide[b] = float64(i)
		}
	}
	return &Zipf{cdf: cdf, guide: guide, shift: uint(53 - bits.TrailingZeros(uint(g)))}
}

// N returns the number of ranks.
func (z *Zipf) N() int { return len(z.cdf) }

// Sample draws a rank using rng.
func (z *Zipf) Sample(rng *sim.RNG) int {
	return z.sample(rng.Uint64() >> 11)
}

// sample returns the rank of the draw u = k/2^53 (rng.Float64's value for
// the same 64 bits): the first rank whose CDF reaches u.
func (z *Zipf) sample(k uint64) int {
	u := float64(k) / (1 << 53)
	b := k >> z.shift
	lo, hi := int(z.guide[b]), int(z.guide[b+1])
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// P returns the probability of rank i.
func (z *Zipf) P(i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
