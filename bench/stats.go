package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer, and the figure is a handful of outliers.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of an
// ascending slice, and whether at least minBeyond samples lie beyond it.
func percentile(sorted []float64, q float64) (v float64, supported bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	// The slack keeps a product like 0.95*200 = 190.00000000000003 from
	// rounding up to the next rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	rank = min(max(rank, 1), n)
	return sorted[rank-1], n-rank >= minBeyond
}

// supportedPercentile lowers q down the ladder p99 → p95 → p90 → p50
// until the sample supports it, and returns the rung it settled on.
func supportedPercentile(sorted []float64, q float64) (usedQ, v float64) {
	for _, rung := range []float64{0.99, 0.95, 0.90} {
		if rung > q {
			continue
		}
		if v, ok := percentile(sorted, rung); ok {
			return rung, v
		}
	}
	v, _ = percentile(sorted, 0.5)
	return 0.5, v
}

// median returns the nearest-rank median of an unsorted slice (0 when
// empty), leaving the argument untouched.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	v, _ := percentile(s, 0.5)
	return v
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// quartiles returns the cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method), which
// is what the A/A acceptance rule is stated in. It needs two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
