package main

import (
	"math"
	"sort"
)

// percentileLadder is the set of percentiles the benchmark may report, in
// ascending order.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest percentile of the ladder that has at
// least ten samples beyond it in a sample of size n, or 0 when not even the
// median has. A percentile with fewer samples beyond it is set by a handful
// of outliers and does not repeat between runs.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		// The tolerance absorbs the rounding of 100-99.9.
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the p-th percentile (0..100) of vs by linear
// interpolation between closest ranks. vs need not be sorted; it is not
// modified. An empty sample yields 0.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vs []float64) float64 { return percentile(vs, 50) }

// medianPercentile returns the median over the non-empty parts of each
// part's p-th percentile.
func medianPercentile(parts [][]float64, p float64) float64 {
	var ps []float64
	for _, vs := range parts {
		if len(vs) > 0 {
			ps = append(ps, percentile(vs, p))
		}
	}
	return median(ps)
}

// quartiles returns Q1, the median and Q3 by the exclusive method, the one
// Python's statistics.quantiles(values, n=4) uses, so the spread printed
// here is the spread the acceptance check computes.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return vs[0], vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		// Rank k*(n+1)/4, 1-based. Like Python, the rank is clamped to the
		// sample and the weight taken from the clamped rank, which
		// extrapolates for very small samples.
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		rem := k*(n+1) - j*4
		return (s[j-1]*float64(4-rem) + s[j]*float64(rem)) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the distance between the first and third quartile as a share of
// the median, the run-to-run noise measure every bound is compared with.
func spread(vs []float64) float64 {
	q1, q2, q3 := quartiles(vs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}
