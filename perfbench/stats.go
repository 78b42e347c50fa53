package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// tailPercentiles are the candidate tail ranks a report may name.
var tailPercentiles = []float64{0.90, 0.95, 0.99, 0.999, 0.9999}

// tailPercentile returns the highest candidate percentile that leaves at
// least ten samples beyond it among n, or 0 when even p90 does not.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, q := range tailPercentiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			best = q
		}
	}
	return best
}

// summary is a latency sample set reduced to what the reports print.
type summary struct {
	N     int
	P50   float64
	P90   float64
	P95   float64
	P99   float64
	Tail  float64 // tailPercentile(N)
	TailV float64
	Max   float64
}

// summarize sorts xs in place and reduces it.
func summarize(xs []float64) summary {
	sort.Float64s(xs)
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = percentile(xs, 0.50)
	s.P90 = percentile(xs, 0.90)
	s.P95 = percentile(xs, 0.95)
	s.P99 = percentile(xs, 0.99)
	s.Tail = tailPercentile(len(xs))
	s.TailV = percentile(xs, s.Tail)
	s.Max = xs[len(xs)-1]
	return s
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// meanOfGroupMedians returns the mean over groups of each group's median,
// where xs[i] belongs to group[i].
func meanOfGroupMedians(group []int64, xs []float64) float64 {
	byGroup := map[int64][]float64{}
	for i, x := range xs {
		byGroup[group[i]] = append(byGroup[group[i]], x)
	}
	var sum float64
	for _, g := range byGroup {
		sum += median(g)
	}
	return sum / float64(len(byGroup))
}
