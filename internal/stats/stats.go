// Package stats provides the statistical primitives used across the
// Sparse-DySta reproduction: summary statistics, percentiles, histograms,
// Pearson correlation, RMSE and the "relative range" metric of the paper's
// Table 2.
package stats

import (
	"errors"
	"math"
	"math/bits"
	"slices"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (divisor n), or 0 when
// fewer than two samples are present.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var sum float64
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic(ErrEmpty)
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (p in [0,100]) of xs using linear
// interpolation between closest ranks. It panics on an empty slice.
func Percentile(xs []float64, p float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, p)
}

// PercentileSorted is Percentile over an ascending slice, without the copy
// and sort: callers taking several percentiles of one sample sort it once,
// or select only the ranks it reads (SelectPercentiles). It panics on an
// empty slice.
func PercentileSorted(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic(ErrEmpty)
	}
	lo, hi, frac := percentileRanks(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// percentileRanks returns the two ranks, lo <= hi, whose sorted values
// PercentileSorted interpolates for the p-th percentile of n > 0 values,
// and the weight of hi's: the closest ranks around p/100*(n-1), with p
// clamped to [0, 100].
func percentileRanks(n int, p float64) (lo, hi int, frac float64) {
	if p <= 0 {
		return 0, 0, 0
	}
	if p >= 100 {
		return n - 1, n - 1, 0
	}
	rank := p / 100 * float64(n-1)
	lo = int(math.Floor(rank))
	hi = int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// SelectPercentiles reorders xs in place so that, for each p in ps,
// PercentileSorted(xs, p) returns exactly what it returns once xs is
// sorted: every rank it reads holds the value sorting would put there.
// Only those ranks are selected, by three-way partitioning around a
// median-of-three pivot, which is linear in len(xs) on average; a range
// still unresolved after 2*log2(len(xs)) rounds is sorted instead, so
// the worst case stays O(n log n). xs must hold no NaN.
func SelectPercentiles(xs []float64, ps ...float64) {
	if len(xs) == 0 {
		return
	}
	var buf [8]int // room for four percentiles' ranks without allocating
	ranks := buf[:0]
	for _, p := range ps {
		lo, hi, _ := percentileRanks(len(xs), p)
		ranks = append(ranks, lo, hi)
	}
	slices.Sort(ranks)
	selectRanks(xs, 0, len(xs), ranks, 2*bits.Len(uint(len(xs))))
}

// selectRanks puts the sorted value at each of the ascending ranks in
// [lo, hi) into place, given that xs[lo:hi] holds the values sorting puts
// there, partitioning at most depth more rounds along any range before
// it sorts the range.
func selectRanks(xs []float64, lo, hi int, ranks []int, depth int) {
	for {
		for len(ranks) > 0 && ranks[0] < lo {
			ranks = ranks[1:]
		}
		for len(ranks) > 0 && ranks[len(ranks)-1] >= hi {
			ranks = ranks[:len(ranks)-1]
		}
		if len(ranks) == 0 {
			return
		}
		if hi-lo <= 16 || depth == 0 {
			slices.Sort(xs[lo:hi])
			return
		}
		depth--
		lt, gt := partition3(xs[lo:hi])
		// xs[lo+lt : lo+gt] holds the pivot's value at its sorted ranks.
		selectRanks(xs, lo, lo+lt, ranks, depth)
		lo += gt
	}
}

// partition3 reorders xs around the median of its first, middle and
// last values, v, into xs[:lt] < v, xs[lt:gt] == v and xs[gt:] > v.
func partition3(xs []float64) (lt, gt int) {
	a, b, c := xs[0], xs[len(xs)/2], xs[len(xs)-1]
	v := max(min(a, b), min(max(a, b), c))
	lt, i, gt := 0, 0, len(xs)
	for i < gt {
		switch x := xs[i]; {
		case x < v:
			xs[lt], xs[i] = x, xs[lt]
			lt++
			i++
		case x > v:
			gt--
			xs[gt], xs[i] = x, xs[gt]
		default:
			i++
		}
	}
	return lt, gt
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// RelativeRange returns (max-min)/mean, the network-sparsity spread metric
// reported in the paper's Table 2. It returns 0 when the mean is zero or the
// slice is empty.
func RelativeRange(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return (Max(xs) - Min(xs)) / m
}

// RMSE returns the root-mean-square error between predictions and targets.
// It panics if the slices differ in length or are empty.
func RMSE(pred, target []float64) float64 {
	if len(pred) != len(target) {
		panic("stats: RMSE length mismatch")
	}
	if len(pred) == 0 {
		panic(ErrEmpty)
	}
	var sum float64
	for i := range pred {
		d := pred[i] - target[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred)))
}

// Pearson returns the Pearson product-moment correlation coefficient between
// xs and ys. It panics if lengths differ or fewer than two samples are
// given. When either series is constant the correlation is undefined and 0
// is returned.
func Pearson(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: Pearson length mismatch")
	}
	if len(xs) < 2 {
		panic("stats: Pearson needs at least two samples")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// CorrelationMatrix returns the matrix of pairwise Pearson correlations
// between the columns of series, where series[i] is the i-th column
// (variable) observed over the same samples. All columns must have equal,
// non-trivial length.
func CorrelationMatrix(series [][]float64) [][]float64 {
	n := len(series)
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		m[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c := Pearson(series[i], series[j])
			m[i][j], m[j][i] = c, c
		}
	}
	return m
}

// Clamp limits x to the interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
