// Package stats provides the small statistical toolkit used by the
// experiment harness: summary statistics, multi-run series aggregation
// (the paper averages 5 runs per data point), and monotone binary search
// (used for Fig. 12's "maximum tolerable failure fraction").
package stats

import (
	"math"
	"sort"
)

// Summary holds the summary statistics of a sample.
type Summary struct {
	N         int
	Mean, Std float64
	Min, Max  float64
}

// Summarize computes summary statistics; the Std is the sample standard
// deviation (n−1 denominator), zero for n < 2.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if s.N == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	sum := 0.0
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		ss := 0.0
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(s.N-1))
	}
	return s
}

// Mean returns the arithmetic mean (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median (0 for an empty slice).
func Median(xs []float64) float64 {
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

// MeanSeries averages runs element-wise: runs[i][j] is run i's value at
// series position j. All runs must have equal length; it panics otherwise
// (a harness bug).
func MeanSeries(runs [][]float64) []float64 {
	if len(runs) == 0 {
		return nil
	}
	n := len(runs[0])
	out := make([]float64, n)
	for _, run := range runs {
		if len(run) != n {
			panic("stats: ragged series")
		}
		for j, v := range run {
			out[j] += v
		}
	}
	for j := range out {
		out[j] /= float64(len(runs))
	}
	return out
}

// MaxTrueFraction finds, by bisection to within tol, the largest x in
// [0, hi] for which pred is true, assuming pred is monotone (true below
// some threshold, false above). Returns 0 if pred(0) is false and hi if
// pred(hi) is true.
func MaxTrueFraction(hi, tol float64, pred func(x float64) bool) float64 {
	if hi <= 0 {
		return 0
	}
	if !pred(0) {
		return 0
	}
	if pred(hi) {
		return hi
	}
	lo := 0.0
	for hi-lo > tol {
		mid := (lo + hi) / 2
		if pred(mid) {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// Linspace returns n evenly spaced values from lo to hi inclusive; n must
// be at least 2.
func Linspace(lo, hi float64, n int) []float64 {
	if n < 2 {
		panic("stats: Linspace needs n >= 2")
	}
	out := make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi
	return out
}
