// Package stats provides the small statistical toolkit the simulator and
// the experiment harness rely on: the integer exponential moving average
// used by the ESP-NUCA hardware (paper eq. 2), descriptive statistics,
// Student-t confidence intervals for the multi-run methodology (paper
// §4.2), geometric means for normalized-performance summaries, and a Zipf
// sampler used by the synthetic workloads.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs (0 for fewer than
// two samples).
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs)-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// GeoMean returns the geometric mean of xs; all values must be positive.
func GeoMean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("stats: geomean of empty slice")
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0, fmt.Errorf("stats: geomean requires positive values, got %g", x)
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs))), nil
}

// tTable95 holds two-sided 95% Student-t critical values by degrees of
// freedom (1-30); beyond 30 we use the normal approximation.
var tTable95 = []float64{
	0, 12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262,
	2.228, 2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093,
	2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// CI95 returns the half-width of the two-sided 95% confidence interval for
// the mean of xs (0 for fewer than two samples).
func CI95(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	df := n - 1
	t := 1.960
	if df < len(tTable95) {
		t = tTable95[df]
	}
	return t * StdDev(xs) / math.Sqrt(float64(n))
}

// Summary bundles the descriptive statistics reported for each data point.
type Summary struct {
	Mean, Median, Min, Max, StdDev, CI95 float64
	N                                    int
}

// Summarize computes a Summary of xs.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	min, max := xs[0], xs[0]
	for _, x := range xs {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return Summary{
		Mean:   Mean(xs),
		Median: Median(xs),
		Min:    min,
		Max:    max,
		StdDev: StdDev(xs),
		CI95:   CI95(xs),
		N:      len(xs),
	}
}

// Median returns the median of xs (0 for empty input).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}
