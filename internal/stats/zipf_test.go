package stats

import (
	"fmt"
	"testing"

	"espnuca/internal/sim"
)

// bisectAll is the unguided search: the first rank of the whole CDF that
// reaches u.
func bisectAll(cdf []float64, u float64) int {
	lo, hi := 0, len(cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// TestZipfGuideMatchesBisect checks that the guide table only narrows the
// search: every draw gets the rank a bisection of the full CDF gives,
// at bucket edges, at CDF steps, at both ends of the draw range and at
// random draws.
func TestZipfGuideMatchesBisect(t *testing.T) {
	const top = 1<<53 - 1
	for _, n := range []int{1, 2, 3, 7, 1023, 1024, 1025, 4096, 1 << 18} {
		for _, s := range []float64{0, 0.5, 0.8, 1, 1.3} {
			z := NewZipf(n, s)
			ks := []uint64{0, 1, top - 1, top}
			for b := uint64(1); b < uint64(len(z.guide)-1); b++ {
				ks = append(ks, b<<z.shift-1, b<<z.shift)
			}
			for i := 0; i < n; i += 1 + n/512 {
				k := uint64(z.cdf[i] * (1 << 53))
				ks = append(ks, k-1, k, k+1)
			}
			rng := sim.NewRNG(uint64(n) + 7)
			for i := 0; i < 2000; i++ {
				ks = append(ks, rng.Uint64()>>11)
			}
			for _, k := range ks {
				if k > top {
					continue
				}
				want := bisectAll(z.cdf, float64(k)/(1<<53))
				if got := z.sample(k); got != want {
					t.Fatalf("n=%d s=%g k=%d: guided rank %d, bisection %d", n, s, k, got, want)
				}
			}
			if got, want := len(z.guide)-1, min(n, maxGuide); got < want || got&(got-1) != 0 {
				t.Fatalf("n=%d: guide has %d buckets", n, got)
			}
		}
	}
}

// BenchmarkZipfSample draws from 32 samplers in turn, as the cores'
// streams do, so the CDFs compete for the host caches.
func BenchmarkZipfSample(b *testing.B) {
	for _, n := range []int{1 << 15, 1 << 18} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var zs [32]*Zipf
			for i := range zs {
				zs[i] = NewZipf(n, 0.8)
			}
			rng := sim.NewRNG(1)
			sink := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink += zs[i%len(zs)].Sample(rng)
			}
			if sink < 0 {
				b.Fatal(sink)
			}
		})
	}
}
