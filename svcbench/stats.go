package main

import (
	"math"
	"sort"
)

// quantile is the q-quantile of xs by linear interpolation between the
// two nearest ranks (the median of an even count is the mean of the
// middle pair). xs need not be sorted; NaN when xs is empty.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantile is quantile restricted to percentiles the sample supports:
// at least minTail samples must lie beyond q, so a p90 needs 100 samples
// and a p99 needs 1,000. ok is false when the sample is too small.
func tailQuantile(xs []float64, q float64) (v float64, ok bool) {
	const minTail = 10
	if float64(len(xs))*(1-q) < minTail-1e-9 {
		return 0, false
	}
	return quantile(xs, q), true
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
