package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
// With fewer, the percentile is one or two outliers' opinion and moves
// run to run by more than any bound this benchmark sets.
const minBeyond = 10

// median returns the middle of xs (mean of the two middles for an even
// count). It sorts a copy.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule, and refuses when fewer than minBeyond samples lie
// beyond it: a p95 needs 200 samples, a p90 needs 100.
func percentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v out of range", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n))) // 1-based
	if n-rank < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples leaves %d beyond it, need %d", p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// samplesFor is the fewest samples percentile accepts for p.
func samplesFor(p float64) int {
	for n := minBeyond; ; n++ {
		if n-int(math.Ceil(p/100*float64(n))) >= minBeyond {
			return n
		}
	}
}
