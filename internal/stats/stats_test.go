package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"sparsedysta/internal/rng"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMean(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{1, 2, 3, 4}, 2.5},
		{[]float64{-1, 1}, 0},
	}
	for _, c := range cases {
		if got := Mean(c.in); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Mean(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestVarianceAndStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("StdDev = %v, want 2", got)
	}
	if got := Variance([]float64{3}); got != 0 {
		t.Errorf("Variance of single sample = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %v", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %v", got)
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {75, 4}, {-5, 1}, {110, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	// Interpolated value.
	if got := Percentile([]float64{10, 20}, 50); !almostEqual(got, 15, 1e-12) {
		t.Errorf("interpolated median = %v, want 15", got)
	}
}

// TestPercentileSortedMatchesPercentile pins the sorted-input form to
// Percentile bit for bit, over random samples (ties included) and every
// percentile the result aggregators take plus the clamped extremes.
func TestPercentileSortedMatchesPercentile(t *testing.T) {
	r := rng.New(11)
	for n := 1; n <= 40; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(20)) * r.Float64()
		}
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		for _, p := range []float64{-1, 0, 1, 25, 50, 95, 99, 99.9, 100, 101} {
			if got, want := PercentileSorted(sorted, p), Percentile(xs, p); got != want {
				t.Errorf("n=%d p=%v: PercentileSorted = %v, Percentile = %v", n, p, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("PercentileSorted(nil) did not panic")
		}
	}()
	PercentileSorted(nil, 50)
}

// selectionInputs returns one n-value input of each shape
// SelectPercentiles is checked on: random, sorted, reversed, all-equal,
// duplicate-heavy (three values), and an organ pipe (ascending, then
// descending).
func selectionInputs(r *rng.Source, n int) map[string][]float64 {
	in := map[string][]float64{}
	for _, shape := range []string{"random", "sorted", "reversed", "all-equal", "duplicates", "organ-pipe"} {
		xs := make([]float64, n)
		for i := range xs {
			switch shape {
			case "random":
				xs[i] = 1e6 * r.Float64()
			case "sorted":
				xs[i] = float64(i)
			case "reversed":
				xs[i] = float64(n - i)
			case "all-equal":
				xs[i] = 7
			case "duplicates":
				xs[i] = float64(r.Intn(3))
			case "organ-pipe":
				xs[i] = float64(min(i, n-i))
			}
		}
		in[shape] = xs
	}
	return in
}

// TestSelectPercentilesMatchesSort: after SelectPercentiles, every
// percentile it selected reads bit for bit what it reads on the sorted
// values, and the values are a permutation of the input, for every input
// shape at n from 1 upward, with the three percentiles the result
// aggregators take, the clamped extremes and more ranks than its
// allocation-free buffer holds.
func TestSelectPercentilesMatchesSort(t *testing.T) {
	r := rng.New(5)
	sizes := []int{1000, 4099, 20000}
	for n := 1; n <= 130; n++ {
		sizes = append(sizes, n)
	}
	for _, n := range sizes {
		for shape, xs := range selectionInputs(r, n) {
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			for _, ps := range [][]float64{
				{50, 95, 99},
				{99, 50},
				{-1, 0, 100, 101},
				{1, 10, 20, 30, 40, 50, 60, 70, 80, 90},
			} {
				got := append([]float64(nil), xs...)
				SelectPercentiles(got, ps...)
				for _, p := range ps {
					if a, b := PercentileSorted(got, p), PercentileSorted(sorted, p); a != b {
						t.Fatalf("%s n=%d ps=%v: p%v reads %v after selection, %v sorted", shape, n, ps, p, a, b)
					}
				}
				sort.Float64s(got)
				if !slices.Equal(got, sorted) {
					t.Fatalf("%s n=%d ps=%v: selection is not a permutation of the input", shape, n, ps)
				}
			}
		}
	}
	SelectPercentiles(nil, 50) // an empty input is left alone
}

// TestSelectPercentilesAllocatesNothing: selecting the aggregators'
// three percentiles allocates nothing.
func TestSelectPercentilesAllocatesNothing(t *testing.T) {
	xs := selectionInputs(rng.New(2), 1000)["random"]
	if got := testing.AllocsPerRun(10, func() { SelectPercentiles(xs, 50, 95, 99) }); got != 0 {
		t.Errorf("SelectPercentiles made %v allocations, want 0", got)
	}
}

// TestSelectRanksFallsBackToSort: a range still unresolved when the
// partition budget runs out is sorted, so every budget, down to none,
// places each rank.
func TestSelectRanksFallsBackToSort(t *testing.T) {
	r := rng.New(9)
	for _, n := range []int{17, 100, 1000} {
		for shape, xs := range selectionInputs(r, n) {
			sorted := append([]float64(nil), xs...)
			sort.Float64s(sorted)
			ranks := []int{0, n / 3, n / 2, n - 2, n - 1}
			for depth := 0; depth <= 3; depth++ {
				got := append([]float64(nil), xs...)
				selectRanks(got, 0, n, ranks, depth)
				for _, k := range ranks {
					if got[k] != sorted[k] {
						t.Fatalf("%s n=%d depth=%d: rank %d holds %v, want %v", shape, n, depth, k, got[k], sorted[k])
					}
				}
			}
		}
	}
}

// BenchmarkPercentiles times the three aggregator percentiles over n
// random latencies, by sorting and by selection; 157,000 is a
// serving-control cluster's full capture, 1,000 one paper-grid cell's.
func BenchmarkPercentiles(b *testing.B) {
	for _, n := range []int{1000, 157000} {
		xs := selectionInputs(rng.New(1), n)["random"]
		buf := make([]float64, n)
		for _, c := range []struct {
			name string
			run  func([]float64)
		}{
			{"sort", func(v []float64) { slices.Sort(v) }},
			{"select", func(v []float64) { SelectPercentiles(v, 50, 95, 99) }},
		} {
			b.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				for range b.N {
					copy(buf, xs)
					c.run(buf)
				}
			})
		}
	}
}

func TestPercentileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Percentile(xs, 50)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("Percentile mutated its input: %v", xs)
	}
}

func TestRelativeRange(t *testing.T) {
	// (max-min)/mean: (0.6-0.4)/0.5 = 0.4
	xs := []float64{0.4, 0.5, 0.6}
	if got := RelativeRange(xs); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("RelativeRange = %v, want 0.4", got)
	}
	if got := RelativeRange(nil); got != 0 {
		t.Errorf("RelativeRange(nil) = %v, want 0", got)
	}
	if got := RelativeRange([]float64{-1, 1}); got != 0 {
		t.Errorf("RelativeRange with zero mean = %v, want 0", got)
	}
}

func TestRMSE(t *testing.T) {
	pred := []float64{1, 2, 3}
	target := []float64{1, 2, 3}
	if got := RMSE(pred, target); got != 0 {
		t.Errorf("RMSE of identical series = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Errorf("RMSE = %v", got)
	}
}

func TestRMSEPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RMSE length mismatch did not panic")
		}
	}()
	RMSE([]float64{1}, []float64{1, 2})
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Pearson(xs, ys); !almostEqual(got, 1, 1e-12) {
		t.Errorf("Pearson = %v, want 1", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, neg); !almostEqual(got, -1, 1e-12) {
		t.Errorf("Pearson = %v, want -1", got)
	}
}

func TestPearsonConstantSeries(t *testing.T) {
	if got := Pearson([]float64{1, 1, 1}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("Pearson with constant series = %v, want 0", got)
	}
}

func TestPearsonBounds(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		n := 10 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.Norm()
			ys[i] = r.Norm()
		}
		c := Pearson(xs, ys)
		return c >= -1-1e-9 && c <= 1+1e-9
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCorrelationMatrix(t *testing.T) {
	series := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{4, 3, 2, 1},
	}
	m := CorrelationMatrix(series)
	for i := range m {
		if m[i][i] != 1 {
			t.Errorf("diagonal [%d][%d] = %v", i, i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Errorf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	if !almostEqual(m[0][1], 1, 1e-12) {
		t.Errorf("m[0][1] = %v, want 1", m[0][1])
	}
	if !almostEqual(m[0][2], -1, 1e-12) {
		t.Errorf("m[0][2] = %v, want -1", m[0][2])
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5}, {-1, 0, 10, 0}, {11, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(0, 1, 10)
	h.AddAll([]float64{0.05, 0.15, 0.15, 0.95})
	if h.Total() != 4 {
		t.Fatalf("Total = %d", h.Total())
	}
	if h.Counts[0] != 1 || h.Counts[1] != 2 || h.Counts[9] != 1 {
		t.Errorf("unexpected counts %v", h.Counts)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(0, 1, 4)
	h.Add(-5)
	h.Add(5)
	if h.Counts[0] != 1 || h.Counts[3] != 1 {
		t.Errorf("out-of-range values not clamped: %v", h.Counts)
	}
}

func TestHistogramDensityIntegratesToOne(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := rng.New(seed)
		h := NewHistogram(-3, 3, 24)
		for i := 0; i < 500; i++ {
			h.Add(r.Norm())
		}
		var integral float64
		for i := range h.Counts {
			integral += h.Density(i) * h.BinWidth()
		}
		return almostEqual(integral, 1, 1e-9)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	if got := h.BinCenter(0); !almostEqual(got, 1, 1e-12) {
		t.Errorf("BinCenter(0) = %v, want 1", got)
	}
	if got := h.BinCenter(4); !almostEqual(got, 9, 1e-12) {
		t.Errorf("BinCenter(4) = %v, want 9", got)
	}
}

func TestHistogramRender(t *testing.T) {
	h := NewHistogram(0, 1, 2)
	h.AddAll([]float64{0.1, 0.2, 0.8})
	out := h.Render(10)
	if out == "" {
		t.Fatal("empty render")
	}
}

func TestNewHistogramPanics(t *testing.T) {
	for _, fn := range []func(){
		func() { NewHistogram(0, 1, 0) },
		func() { NewHistogram(1, 1, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid histogram construction did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestRunningMatchesBatch(t *testing.T) {
	r := rng.New(99)
	xs := make([]float64, 1000)
	var run Running
	for i := range xs {
		xs[i] = r.NormAt(3, 2)
		run.Add(xs[i])
	}
	if !almostEqual(run.Mean(), Mean(xs), 1e-9) {
		t.Errorf("running mean %v != batch mean %v", run.Mean(), Mean(xs))
	}
	if !almostEqual(run.Variance(), Variance(xs), 1e-9) {
		t.Errorf("running variance %v != batch variance %v", run.Variance(), Variance(xs))
	}
	if run.Min() != Min(xs) || run.Max() != Max(xs) {
		t.Errorf("running min/max mismatch")
	}
	if run.N() != len(xs) {
		t.Errorf("running N = %d", run.N())
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	if r.Mean() != 0 || r.Variance() != 0 || r.N() != 0 {
		t.Error("zero-value Running not zeroed")
	}
}
