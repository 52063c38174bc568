package main

import (
	"math"
	"sort"
)

// Stats summarises one metric's samples: the shape of the navidrome
// insights summary (min, max, mean, median, stddev) plus the sample count,
// the quartiles and, when the sample supports it, one tail percentile.
type Stats struct {
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	StdDev float64 `json:"stdDev"`
	// Tail is the highest of p99.9, p99, p95 and p90 that has at least
	// minBeyondTail samples above it; TailP names it. Both are zero when
	// the sample is too small for any tail.
	TailP float64 `json:"tailP,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// minBeyondTail is how many samples must lie beyond a percentile before it
// is reported: a p99 estimated from fewer is no tail.
const minBeyondTail = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of an
// ascending sample: the smallest value with at least p% of the sample at or
// below it.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rank(len(sorted), p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile in a sample of
// n, ⌈p·n/100⌉ clamped to [1, n]. The slack absorbs rounding in p·n/100
// (99.9·10000/100 is 9990.000000000002 in floating point).
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples of the nearest-rank p-th percentile's tail:
// those ranked after it.
func beyond(n int, p float64) int { return n - rank(n, p) }

// supportsTail reports whether a sample of n supports the p-th percentile.
func supportsTail(n int, p float64) bool { return beyond(n, p) >= minBeyondTail }

// summarize computes Stats over samples, which it sorts in place.
func summarize(samples []float64) Stats {
	n := len(samples)
	if n == 0 {
		return Stats{}
	}
	sort.Float64s(samples)
	sum := 0.0
	for _, v := range samples {
		sum += v
	}
	mean := sum / float64(n)
	ss := 0.0
	for _, v := range samples {
		ss += (v - mean) * (v - mean)
	}
	st := Stats{
		N:      n,
		Min:    samples[0],
		Max:    samples[n-1],
		Mean:   mean,
		Median: median(samples),
		Q1:     percentile(samples, 25),
		Q3:     percentile(samples, 75),
		StdDev: math.Sqrt(ss / float64(n)),
	}
	for _, p := range []float64{99.9, 99, 95, 90} {
		if supportsTail(n, p) {
			st.TailP, st.Tail = p, percentile(samples, p)
			break
		}
	}
	return st
}

// median of an ascending sample, averaging the middle pair.
func median(sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// medianOf returns the median of values without reordering them.
func medianOf(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return median(s)
}
