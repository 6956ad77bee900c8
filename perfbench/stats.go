package main

import (
	"errors"
	"math"
	"sort"
)

// percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between closest ranks, together with the number of samples
// strictly above the returned value. The guide this benchmark follows
// reports a percentile only with the count of samples beyond it: a p99 over
// 200 samples rests on two of them. xs is not modified.
func percentile(xs []float64, p float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	value = s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
	beyond = len(s) - sort.Search(len(s), func(i int) bool { return s[i] > value })
	return value, beyond
}

// median is percentile(xs, 0.5) without the tail count.
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

var errNonPositive = errors.New("geomean of a non-positive value")

// geomean is the geometric mean of xs, which must all be positive: a
// throughput of zero means an operation did no work and has no place in a
// mean of rates.
func geomean(xs []float64) (float64, error) {
	if len(xs) == 0 {
		return math.NaN(), errors.New("geomean of no values")
	}
	sum := 0.0
	for _, x := range xs {
		if !(x > 0) {
			return math.NaN(), errNonPositive
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs))), nil
}
