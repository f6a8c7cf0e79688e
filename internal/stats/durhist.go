package stats

import (
	"math"
	"math/bits"
	"time"
)

// DurationHist is a log-bucketed histogram over non-negative durations,
// the bounded-memory replacement for the per-request latency slices of
// full-capture runs. Buckets are HDR-style: 32 sub-buckets per power of
// two, so every recorded value lands in a bucket whose width is at most
// 1/32 (~3.1%) of its magnitude. Only a window of whole octaves is
// stored (the exact range below 32ns counts as one): the first Add sizes
// it to 8 octaves, 256 counters, starting two below the value's octave,
// and a value outside it widens it at least twofold. Its size thus
// follows the range of the observations, never their number, and is at
// most the 59 octaves (1,888 counters) that cover every int64.
// Negative durations clamp to zero (they cannot occur in a causally
// correct run; clamping keeps a corrupted input visible in bucket zero
// instead of panicking mid-stream). The zero value is an empty
// histogram.
type DurationHist struct {
	// counts is the window: the counters of whole octaves from bucket
	// base up. Every bucket outside it is zero. It is nil until the
	// first Add.
	counts []int64
	base   int
	total  int64
}

// durHistSubBits fixes the per-octave resolution: 2^5 = 32 sub-buckets,
// giving a worst-case relative bucket width of 1/32.
const durHistSubBits = 5

const durHistSub = 1 << durHistSubBits // sub-buckets per octave

// durHistBuckets covers the exact range [0, 32) plus every octave
// [2^5, 2^63): 32 + (62-5+1)*32. Any int64 duration indexes in range.
const durHistBuckets = durHistSub + (63-durHistSubBits)*durHistSub

// durHistOctaves counts the window's unit of durHistSub buckets: the
// exact range and the 58 octaves above it.
const durHistOctaves = durHistBuckets / durHistSub

// The first window spans durHistWindow octaves and starts durHistLead
// below the first value's octave: a run's latencies rarely fall far
// below its first completion, which queued behind nothing.
const (
	durHistWindow = 8
	durHistLead   = 2
)

// durHistIndex maps a non-negative value to its bucket.
func durHistIndex(v int64) int {
	u := uint64(v)
	if u < durHistSub {
		return int(u) // exact buckets below one octave of sub-buckets
	}
	k := bits.Len64(u) - 1 // leading-bit position, >= durHistSubBits
	sub := int(u>>(uint(k)-durHistSubBits)) & (durHistSub - 1)
	return durHistSub + (k-durHistSubBits)*durHistSub + sub
}

// durHistUpper returns the exclusive upper bound of bucket idx,
// saturating at MaxInt64 for the topmost bucket (whose true bound 2^63
// does not fit an int64; no simulated duration gets anywhere near it).
func durHistUpper(idx int) int64 {
	if idx < durHistSub {
		return int64(idx) + 1
	}
	k := uint(idx-durHistSub)/durHistSub + durHistSubBits
	sub := int64(idx-durHistSub) % durHistSub
	width := int64(1) << (k - durHistSubBits)
	upper := int64(1)<<k + (sub+1)*width
	if upper <= 0 {
		return math.MaxInt64
	}
	return upper
}

// Add records one observation. Negative durations clamp to zero.
func (h *DurationHist) Add(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := durHistIndex(v)
	if idx < h.base || idx >= h.base+len(h.counts) {
		h.widen(idx)
	}
	h.counts[idx-h.base]++
	h.total++
}

// widen moves the counts into a window that also holds bucket idx. The
// first window is durHistWindow octaves starting durHistLead below idx's;
// a later one is at least twice as wide and keeps the end of the old
// window that lies away from idx, so it grows towards the new value.
func (h *DurationHist) widen(idx int) {
	oct := idx / durHistSub
	lo, n := h.base/durHistSub, len(h.counts)/durHistSub // the window's octaves [lo, lo+n)
	var m int
	if n == 0 {
		lo, m = oct-durHistLead, durHistWindow
	} else {
		m = min(max(2*n, oct+1-lo, lo+n-oct), durHistOctaves)
		if oct < lo {
			lo += n - m
		}
	}
	lo = max(0, min(lo, durHistOctaves-m))
	counts := make([]int64, m*durHistSub)
	if n > 0 {
		copy(counts[h.base-lo*durHistSub:], h.counts)
	}
	h.counts, h.base = counts, lo*durHistSub
}

// Reset empties the histogram in place. It keeps the window's storage
// and position, so refolding values from the range it held allocates
// nothing.
func (h *DurationHist) Reset() {
	clear(h.counts)
	h.total = 0
}

// Quantile returns the p-th percentile (p in [0,100]) as the largest
// value representable in the bucket holding the nearest-rank order
// statistic, so the true order statistic lies within one bucket width
// below the returned value. It returns 0 before any observation.
func (h *DurationHist) Quantile(p float64) time.Duration {
	if h.total == 0 {
		return 0
	}
	// Nearest-rank: the ceil(p/100 * n)-th smallest observation.
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
			return time.Duration(durHistUpper(h.base+i) - 1)
		}
	}
	return time.Duration(durHistUpper(durHistBuckets-1) - 1) // unreachable
}

// WidthAt returns the width of the bucket that holds d: the error bound
// of Quantile at that magnitude (exactly 1ns below one octave of
// sub-buckets, at most d/32 + 1ns above).
func (h *DurationHist) WidthAt(d time.Duration) time.Duration {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	idx := durHistIndex(v)
	if idx < durHistSub {
		return 1
	}
	return time.Duration(int64(1) << (uint(idx-durHistSub) / durHistSub))
}
