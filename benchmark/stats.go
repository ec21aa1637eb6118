package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail estimated from fewer is the value of a handful of outliers, not a
// property of the system.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted. It refuses a percentile above the median with fewer than
// minBeyond samples beyond it.
func percentile(sorted []float64, p float64) (float64, error) {
	n := len(sorted)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if p <= 0 || p > 100 {
		return 0, fmt.Errorf("percentile %v outside (0,100]", p)
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if beyond := n - rank; p > 50 && beyond < minBeyond {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, want at least %d", p, n, beyond, minBeyond)
	}
	return sorted[rank-1], nil
}

// median returns the middle value of vals (the mean of the middle two for an
// even count); vals is not modified.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := sortedCopy(vals)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += v
	}
	return sum / float64(len(vals))
}

// quartileSpread returns (Q3-Q1)/median with the quartiles of Python's
// statistics.quantiles(values, n=4) (the exclusive method), which is how the
// acceptance rule measures run-to-run spread. It needs two values or more.
func quartileSpread(vals []float64) (float64, bool) {
	n := len(vals)
	med := median(vals)
	if n < 2 || med == 0 {
		return 0, false
	}
	s := sortedCopy(vals)
	q := func(i int) float64 { // i-th of 4 cut points, exclusive method
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return (q(3) - q(1)) / math.Abs(med), true
}

// medianRate returns the median over ticks of the rate at which a tick
// committed its work, in units per second. latMs holds one latency per tick,
// work the units done in that tick. The median keeps a stalled stretch of the
// host out of the figure; the tail has its own metric.
func medianRate(latMs []float64, work []int) float64 {
	rates := make([]float64, 0, len(latMs))
	for i, l := range latMs {
		if l > 0 {
			rates = append(rates, float64(work[i])/(l/1000))
		}
	}
	return median(rates)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
