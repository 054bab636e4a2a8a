package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs need not be sorted and is
// not modified. It returns NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantileSorted(s, q)
}

func quantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quietFloor is the host-time estimator every gated wall-clock figure
// uses: the 10th percentile of equal-work slice costs. A shared box adds
// time to slices (neighbours, GC, scheduler) and never removes any, so
// the low tail is what the code costs and the mean is what the box did.
// p10 rather than the minimum so a single lucky slice cannot set it.
func quietFloor(slices []float64) float64 { return quantile(slices, 0.10) }

// quartiles returns Q1, median and Q3 the way Python's
// statistics.quantiles(values, n=4) does (exclusive method), because
// that is what the acceptance check computes the spread with.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		// position k*(n+1)/4, 1-based, clamped like CPython does.
		j := k * (n + 1) / 4
		d := k*(n+1) - j*4
		if j < 1 {
			j, d = 1, 0
		}
		if j > n-1 {
			j, d = n-1, 4
		}
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return at(1), at(2), at(3)
}

// iqrSpread is (Q3−Q1)/|median|: the run-to-run spread the benchmark's
// bounds are judged against.
func iqrSpread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
