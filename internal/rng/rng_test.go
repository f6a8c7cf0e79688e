package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d diverged: %d vs %d", i, av, bv)
		}
	}
}

// TestSeedMatchesNew: a used source re-seeded in place, even one holding
// a cached normal deviate, draws exactly what a new source of that seed
// draws.
func TestSeedMatchesNew(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42, 1<<64 - 1} {
		r := New(seed + 7)
		r.Norm() // leaves the pair's second deviate cached
		r.Seed(seed)
		fresh := New(seed)
		for i := 0; i < 100; i++ {
			if a, b := r.Norm(), fresh.Norm(); a != b {
				t.Fatalf("seed %d, normal %d: re-seeded %v, new %v", seed, i, a, b)
			}
			if a, b := r.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %d, draw %d: re-seeded %d, new %d", seed, i, a, b)
			}
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 collided on %d of 100 draws", same)
	}
}

func TestZeroSeedNotDegenerate(t *testing.T) {
	r := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[r.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero seed produced only %d distinct values in 100 draws", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		r := New(seed)
		for i := 0; i < 100; i++ {
			f := r.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(7)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want %.0f ±5%%", i, c, want)
		}
	}
}

func TestNormMoments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %.4f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %.4f, want ~1", variance)
	}
}

// TestNormMatchesSeparateSinCos: Norm, which takes both Box-Muller
// deviates from one math.Sincos, returns bit for bit what the transform
// with separate math.Sin and math.Cos calls returns, over 10^6 draws from
// four seeds.
func TestNormMatchesSeparateSinCos(t *testing.T) {
	for _, seed := range []uint64{1, 2, 7, 1 << 40} {
		r, ref := New(seed), New(seed)
		var spare float64
		var spareOK bool
		refNorm := func() float64 {
			if spareOK {
				spareOK = false
				return spare
			}
			for {
				u := ref.Float64()
				if u == 0 {
					continue
				}
				v := ref.Float64()
				radius := math.Sqrt(-2 * math.Log(u))
				theta := 2 * math.Pi * v
				spare, spareOK = radius*math.Sin(theta), true
				return radius * math.Cos(theta)
			}
		}
		for i := 0; i < 250000; i++ {
			if got, want := r.Norm(), refNorm(); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: Norm %v, separate Sin/Cos %v", seed, i, got, want)
			}
		}
	}
}

func TestNormAt(t *testing.T) {
	r := New(3)
	const n = 100000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.NormAt(5, 2)
	}
	if mean := sum / n; math.Abs(mean-5) > 0.05 {
		t.Errorf("NormAt(5,2) mean = %.4f, want ~5", mean)
	}
}

func TestExpMean(t *testing.T) {
	r := New(13)
	const n = 200000
	rate := 4.0
	var sum float64
	for i := 0; i < n; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("negative exponential deviate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp(%.0f) mean = %.5f, want %.5f", rate, mean, 1/rate)
	}
}

func TestExpPanicsOnNonPositiveRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestBernoulli(t *testing.T) {
	r := New(17)
	if r.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !r.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) hit rate = %.4f", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw % 64)
		p := New(seed).Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	child := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("parent and child streams collided on %d of 100 draws", same)
	}
}

func TestShuffleDeterministic(t *testing.T) {
	mk := func() []int {
		v := []int{0, 1, 2, 3, 4, 5, 6, 7}
		New(9).Shuffle(len(v), func(i, j int) { v[i], v[j] = v[j], v[i] })
		return v
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("shuffle not deterministic at %d: %v vs %v", i, a, b)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNorm(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Norm()
	}
}
