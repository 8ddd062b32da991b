package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 <= q <= 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted; an empty
// slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentiles are the candidates tailPercentile picks from, highest
// first.
var tailPercentiles = []float64{99.9, 99, 95, 90}

// tailPercentile returns the highest percentile that has at least ten of
// n samples beyond it; ok is false when even p90 has fewer.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			return p, true
		}
	}
	return 0, false
}

// describe renders a timing sample as its count, quartiles and, when the
// sample is large enough, its tail percentile.
func describe(name, unit string, xs []float64) string {
	s := fmt.Sprintf("%s: n=%d min=%.4g p25=%.4g p50=%.4g p75=%.4g", name, len(xs),
		quantile(xs, 0), quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75))
	if p, ok := tailPercentile(len(xs)); ok {
		s += fmt.Sprintf(" p%g=%.4g", p, quantile(xs, p/100))
	}
	return s + " " + unit
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// log2Hist aggregates per-call host timings without storing one sample
// per call: a count, a total and a power-of-two histogram of nanoseconds.
type log2Hist struct {
	n       uint64
	totalNS int64
	buckets [64]uint64 // bucket b holds durations in [2^(b-1), 2^b) ns
}

func (h *log2Hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.n++
	h.totalNS += ns
	h.buckets[bits.Len64(uint64(ns))]++
}

func (h *log2Hist) merge(o *log2Hist) {
	h.n += o.n
	h.totalNS += o.totalNS
	for i, c := range o.buckets {
		h.buckets[i] += c
	}
}

func (h *log2Hist) meanNS() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.totalNS) / float64(h.n)
}

// quantileNS estimates the q-quantile, interpolating linearly inside the
// power-of-two bucket that holds it.
func (h *log2Hist) quantileNS(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var seen float64
	for b, c := range h.buckets {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := 0.0, 1.0
			if b > 0 {
				lo, hi = math.Ldexp(1, b-1), math.Ldexp(1, b)
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return math.Ldexp(1, 63)
}

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
