package stats

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"sparsedysta/internal/rng"
)

// TestDurHistBuckets pins the bucket geometry: indices are monotone in
// the value, every value lies inside its bucket's bounds, and the bucket
// width never exceeds 1/32 of the bucket's lower bound (plus the exact
// 1ns buckets at the bottom).
func TestDurHistBuckets(t *testing.T) {
	r := rng.New(7)
	values := []int64{0, 1, 31, 32, 33, 63, 64, 65, 1023, 1024, 1 << 40, math.MaxInt64}
	for i := 0; i < 5000; i++ {
		values = append(values, int64(r.Uint64()>>1))
	}
	for _, v := range values {
		idx := durHistIndex(v)
		if idx < 0 || idx >= durHistBuckets {
			t.Fatalf("value %d: index %d out of range", v, idx)
		}
		upper := durHistUpper(idx)
		if v >= upper && upper != math.MaxInt64 { // top bucket saturates inclusively
			t.Fatalf("value %d >= upper bound %d of its bucket %d", v, upper, idx)
		}
		if idx > 0 {
			lower := durHistUpper(idx - 1)
			if v < lower {
				t.Fatalf("value %d < lower bound %d of its bucket %d", v, lower, idx)
			}
			if upper > 0 && lower >= durHistSub && upper-lower > lower/durHistSub {
				t.Fatalf("bucket %d width %d exceeds lower/32 = %d", idx, upper-lower, lower/durHistSub)
			}
		}
	}
}

// TestDurHistQuantile checks the error contract against exact
// nearest-rank order statistics: the true order statistic is never above
// the returned quantile and lies within one bucket width below it.
func TestDurHistQuantile(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		r := rng.New(seed)
		h := &DurationHist{}
		xs := make([]int64, 0, 4000)
		for i := 0; i < 4000; i++ {
			v := int64(r.Exp(1.0) * float64(50*time.Millisecond))
			xs = append(xs, v)
			h.Add(time.Duration(v))
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, p := range []float64{0, 10, 50, 90, 95, 99, 100} {
			rank := int(math.Ceil(p / 100 * float64(len(xs))))
			if rank < 1 {
				rank = 1
			}
			exact := time.Duration(xs[rank-1])
			got := h.Quantile(p)
			if exact > got {
				t.Fatalf("seed %d p%g: exact %v above histogram quantile %v", seed, p, exact, got)
			}
			if width := h.WidthAt(got); got-exact > width {
				t.Fatalf("seed %d p%g: histogram %v vs exact %v differs by more than bucket width %v",
					seed, p, got, exact, width)
			}
		}
	}
}

// TestDurHistMerge checks Merge equals recording both streams into one.
func TestDurHistMerge(t *testing.T) {
	r := rng.New(11)
	var a, b, both DurationHist
	for i := 0; i < 1000; i++ {
		v := time.Duration(r.Intn(int(time.Second)))
		if i%2 == 0 {
			a.Add(v)
		} else {
			b.Add(v)
		}
		both.Add(v)
	}
	a.Merge(&b)
	if a.Total() != both.Total() {
		t.Fatalf("merged total %d != combined %d", a.Total(), both.Total())
	}
	for _, p := range []float64{1, 50, 99} {
		if a.Quantile(p) != both.Quantile(p) {
			t.Fatalf("p%g: merged %v != combined %v", p, a.Quantile(p), both.Quantile(p))
		}
	}
}

// TestDurHistEmpty pins the zero-value behavior.
func TestDurHistEmpty(t *testing.T) {
	var h DurationHist
	if got := h.Quantile(99); got != 0 {
		t.Fatalf("empty quantile = %v, want 0", got)
	}
	h.Add(-time.Second) // negative clamps to zero instead of corrupting
	if got := h.Quantile(50); got != 0 {
		t.Fatalf("clamped quantile = %v, want 0", got)
	}
}

// TestReservoir pins determinism, the size bound and first-k retention.
func TestReservoir(t *testing.T) {
	a := NewReservoir[int](8, 42)
	b := NewReservoir[int](8, 42)
	for i := 0; i < 1000; i++ {
		a.Add(i)
		b.Add(i)
	}
	if len(a.Items()) != 8 || a.N() != 1000 {
		t.Fatalf("reservoir holds %d of %d, want 8 of 1000", len(a.Items()), a.N())
	}
	for i, x := range a.Items() {
		if b.Items()[i] != x {
			t.Fatalf("same seed diverged at slot %d: %d vs %d", i, x, b.Items()[i])
		}
	}
	small := NewReservoir[int](8, 1)
	for i := 0; i < 5; i++ {
		small.Add(i)
	}
	for i, x := range small.Items() {
		if x != i {
			t.Fatalf("under-full reservoir reordered: slot %d = %d", i, x)
		}
	}
	// Reset re-seeds in place: a used reservoir then samples exactly like
	// a new one, without allocating.
	if allocs := testing.AllocsPerRun(10, func() { a.Reset(7) }); allocs != 0 {
		t.Errorf("Reset makes %v allocations, want 0", allocs)
	}
	fresh := NewReservoir[int](8, 7)
	for i := 0; i < 500; i++ {
		a.Add(-i)
		fresh.Add(-i)
	}
	if a.N() != 500 || !slices.Equal(a.Items(), fresh.Items()) {
		t.Fatalf("reset reservoir holds %v of %d, a new one %v of %d", a.Items(), a.N(), fresh.Items(), fresh.N())
	}
}
