package stats

import "sparsedysta/internal/rng"

// Reservoir keeps a uniform fixed-size sample of a stream (Vitter's
// algorithm R), the bounded-memory replacement for full Tasks capture:
// a streaming run retains k exemplar outcomes instead of millions. The
// sample is a deterministic function of (seed, stream order), so two
// runs observing the same completion sequence keep identical exemplars.
type Reservoir[T any] struct {
	items []T
	k     int
	n     int64
	r     *rng.Source
}

// NewReservoir returns a reservoir holding at most k items, drawing its
// replacement decisions from a private rng stream seeded with seed.
func NewReservoir[T any](k int, seed uint64) *Reservoir[T] {
	return &Reservoir[T]{items: make([]T, 0, k), k: k, r: rng.New(seed)}
}

// Reset empties the reservoir and re-seeds its rng stream, so it samples
// exactly like NewReservoir(k, seed) in the storage it already holds.
func (rv *Reservoir[T]) Reset(seed uint64) {
	clear(rv.items)
	rv.items = rv.items[:0]
	rv.n = 0
	*rv.r = *rng.New(seed)
}

// Add offers one stream element to the sample.
func (rv *Reservoir[T]) Add(x T) {
	rv.n++
	if len(rv.items) < rv.k {
		rv.items = append(rv.items, x)
		return
	}
	if j := rv.r.Intn(int(rv.n)); j < rv.k {
		rv.items[j] = x
	}
}

// Cap returns k, the most items the reservoir holds.
func (rv *Reservoir[T]) Cap() int { return rv.k }

// N returns the number of stream elements offered so far.
func (rv *Reservoir[T]) N() int64 { return rv.n }

// Items returns the current sample in reservoir order (not stream
// order). The slice is the reservoir's own; callers must not mutate it.
func (rv *Reservoir[T]) Items() []T { return rv.items }
