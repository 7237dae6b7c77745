package main

import (
	"math"
	"sort"
)

// tailBeyond is how many samples must lie beyond a reported tail
// percentile: a p99 needs at least 1,000 samples to be a p99.
const tailBeyond = 10

// percentile reports the value at percentile p (0..100) of samples,
// nearest-rank on the sorted copy.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rankOf(len(s), p)]
}

func rankOf(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n))) - 1
	return max(0, min(r, n-1))
}

// tailPercentile reports the value at percentile p, lowered to the
// highest rank that still has tailBeyond samples above it. It returns
// the value, the percentile actually used, and ok=false when there are
// too few samples for any tail (n <= tailBeyond).
func tailPercentile(samples []float64, p float64) (v, used float64, ok bool) {
	n := len(samples)
	if n <= tailBeyond {
		return math.NaN(), 0, false
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	r := min(rankOf(n, p), n-1-tailBeyond)
	return s[r], 100 * float64(r+1) / float64(n), true
}

func median(samples []float64) float64 { return percentile(samples, 50) }

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
