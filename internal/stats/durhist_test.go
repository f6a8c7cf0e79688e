package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"sparsedysta/internal/rng"
)

// Total returns the number of recorded observations.
func (h *DurationHist) Total() int64 { return h.total }

// Merge adds every observation of other into h.
func (h *DurationHist) Merge(other *DurationHist) {
	for i, c := range other.counts {
		if c == 0 {
			continue
		}
		idx := other.base + i
		if idx < h.base || idx >= h.base+len(h.counts) {
			h.widen(idx)
		}
		h.counts[idx-h.base] += c
	}
	h.total += other.total
}

// denseHist is the histogram in its plainest form: one counter for
// every bucket of the int64 range, 15 KiB whatever it holds. It is the
// reference the windowed DurationHist must match bit for bit.
type denseHist struct {
	counts [durHistBuckets]int64
	total  int64
}

func (h *denseHist) Add(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.counts[durHistIndex(v)]++
	h.total++
}

func (h *denseHist) Quantile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.total)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.total {
		rank = h.total
	}
	var cum int64
	for i, c := range h.counts {
		cum += c
		if cum >= rank {
			return time.Duration(durHistUpper(i) - 1)
		}
	}
	return time.Duration(durHistUpper(durHistBuckets-1) - 1)
}

// oracleQuantiles are the percentiles every comparison with denseHist
// checks.
var oracleQuantiles = []float64{0, 1, 50, 95, 99, 100}

// denseMismatch describes how h departs from ref, or returns "" when
// both hold the same number of observations, agree on every
// oracleQuantiles percentile, and h's window is whole octaves of the
// bucket range holding every observation.
func denseMismatch(h *DurationHist, ref *denseHist) string {
	if h.Total() != ref.total {
		return fmt.Sprintf("%d observations, reference %d", h.Total(), ref.total)
	}
	for _, p := range oracleQuantiles {
		if got, want := h.Quantile(p), ref.Quantile(p); got != want {
			return fmt.Sprintf("p%g = %v, reference %v", p, got, want)
		}
	}
	n := len(h.counts)
	if h.base%durHistSub != 0 || n%durHistSub != 0 || h.base < 0 || h.base+n > durHistBuckets {
		return fmt.Sprintf("window [%d, %d) is not whole octaves of [0, %d)", h.base, h.base+n, durHistBuckets)
	}
	var held int64
	for _, c := range h.counts {
		held += c
	}
	if held != h.total {
		return fmt.Sprintf("window holds %d of %d observations", held, h.total)
	}
	return ""
}

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

// TestDurHistWindow pins the window's geometry: the first Add sizes it
// to durHistWindow octaves starting durHistLead below the value's,
// clamped into the bucket range, and a value outside it at least
// doubles it, keeping the end away from the value.
func TestDurHistWindow(t *testing.T) {
	octave := func(d time.Duration) int { return durHistIndex(int64(d)) / durHistSub }
	window := func(h *DurationHist) [2]int {
		return [2]int{h.base / durHistSub, (h.base + len(h.counts)) / durHistSub}
	}
	var h DurationHist
	if h.counts != nil {
		t.Fatal("the zero value holds a window")
	}
	ms := octave(10 * time.Millisecond)
	steps := []struct {
		add  time.Duration
		want [2]int // the window's octaves [lo, hi) after the Add
	}{
		{10 * time.Millisecond, [2]int{ms - 2, ms + 6}},
		{20 * time.Millisecond, [2]int{ms - 2, ms + 6}},   // inside: unchanged
		{100 * time.Microsecond, [2]int{ms - 10, ms + 6}}, // below: doubled downward
		{1, [2]int{0, 32}},                         // doubled again, clamped at the bottom
		{math.MaxInt64, [2]int{0, durHistOctaves}}, // up to the top
		{-time.Second, [2]int{0, durHistOctaves}},  // clamps to 0, inside
	}
	for i, s := range steps {
		h.Add(s.add)
		if got := window(&h); got != s.want {
			t.Fatalf("Add %d (%v): window octaves %v, want %v", i, s.add, got, s.want)
		}
	}
	for _, c := range []struct {
		first time.Duration
		want  [2]int
	}{
		{0, [2]int{0, durHistWindow}},
		{math.MaxInt64, [2]int{durHistOctaves - durHistWindow, durHistOctaves}},
	} {
		var e DurationHist
		e.Add(c.first)
		if got := window(&e); got != c.want {
			t.Errorf("first Add %v: window octaves %v, want %v", c.first, got, c.want)
		}
	}
}

// TestDurHistMatchesDense is the oracle property: streams that open at
// a random octave, stray up to four octaves either side of it, mix in
// negative values, 0, 1ns and math.MaxInt64, and run again after a
// Reset must leave the windowed histogram agreeing with the dense one
// after every Add and Reset. The streams must widen the window both
// downward and upward, and Reset must keep the window it empties.
func TestDurHistMatchesDense(t *testing.T) {
	specials := []time.Duration{-time.Second, math.MinInt64, 0, 1, math.MaxInt64}
	var down, up bool
	for seed := uint64(1); seed <= 8; seed++ {
		r := rng.New(seed)
		var h DurationHist
		var ref denseHist
		centre := r.Intn(63)
		for round := 0; round < 2; round++ {
			for i := 0; i < 400; i++ {
				d := specials[r.Intn(len(specials))]
				if r.Intn(40) > 0 {
					// Uniform below 2^(top+1): the leading bit lands at
					// top half the time.
					top := min(max(centre+r.Intn(9)-4, 0), 62)
					d = time.Duration(r.Uint64() >> (63 - top))
				}
				lo, hi := h.base, h.base+len(h.counts)
				h.Add(d)
				ref.Add(d)
				if hi > lo {
					down = down || h.base < lo
					up = up || h.base+len(h.counts) > hi
				}
				if msg := denseMismatch(&h, &ref); msg != "" {
					t.Fatalf("seed %d round %d, Add %d (%v): %s", seed, round, i, d, msg)
				}
			}
			held := h.counts
			h.Reset()
			ref = denseHist{}
			if msg := denseMismatch(&h, &ref); msg != "" {
				t.Fatalf("seed %d round %d, Reset: %s", seed, round, msg)
			}
			if len(h.counts) != len(held) || &h.counts[0] != &held[0] {
				t.Fatalf("seed %d round %d: Reset replaced the window", seed, round)
			}
		}
	}
	if !down || !up {
		t.Fatalf("the streams widened the window downward %v, upward %v; want both", down, up)
	}
}

// FuzzDurationHist replays arbitrary Add and Reset sequences on the
// windowed histogram and the dense reference, which must agree after
// every operation. Each operation is 9 bytes: a first byte of 0xff
// resets; any other adds the next 8 bytes, read as a little-endian
// int64, shifted right by the first byte's low six bits, so values
// reach every octave, keep their sign and clamp as they would in a run.
// Only the first 64 operations run: the window reaches its full width
// in six, and a short input keeps each check of the dense array cheap.
func FuzzDurationHist(f *testing.F) {
	add := func(shift byte, v int64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{shift}, uint64(v))
	}
	reset := make([]byte, 9)
	reset[0] = 0xff
	f.Add(slices.Concat(add(0, int64(10*time.Millisecond)), add(0, 1), add(0, 0), add(0, -5), add(0, math.MaxInt64)))
	f.Add(slices.Concat(add(0, math.MaxInt64), add(0, 1), reset, add(0, 300), add(20, math.MaxInt64)))
	f.Add(slices.Concat(add(40, -1), add(63, math.MinInt64), add(0, math.MinInt64), reset, reset, add(1, 64)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var h DurationHist
		var ref denseHist
		for i := 0; i+9 <= min(len(data), 64*9); i += 9 {
			if data[i] == 0xff {
				h.Reset()
				ref = denseHist{}
			} else {
				d := time.Duration(int64(binary.LittleEndian.Uint64(data[i+1:i+9])) >> (data[i] & 63))
				h.Add(d)
				ref.Add(d)
			}
			if msg := denseMismatch(&h, &ref); msg != "" {
				t.Fatalf("operation %d: %s", i/9, msg)
			}
		}
	})
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
