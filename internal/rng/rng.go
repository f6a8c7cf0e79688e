// Package rng provides deterministic, splittable pseudo-random number
// generation for the Sparse-DySta simulation stack.
//
// Every stochastic component of the reproduction (dataset synthesis, request
// arrival processes, model-mix sampling) draws from an rng.Source seeded
// explicitly, so that each experiment is reproducible bit-for-bit from its
// seed. The generator is xoshiro256**, seeded through splitmix64, following
// the recommendation of Blackman & Vigna. The package is intentionally free
// of global state.
package rng

import "math"

// Source is a deterministic xoshiro256** pseudo-random number generator.
// It is not safe for concurrent use; derive independent child generators
// with Split for concurrent or per-subsystem streams.
type Source struct {
	s [4]uint64
	// spare holds a cached second normal deviate from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// New returns a Source seeded from seed via splitmix64, which guarantees a
// well-distributed internal state even for small or structured seeds.
func New(seed uint64) *Source {
	var src Source
	src.Seed(seed)
	return &src
}

// Seed re-seeds r in place: afterwards it draws exactly what New(seed)
// draws, with no cached normal deviate carried over.
func (r *Source) Seed(seed uint64) {
	*r = Source{}
	sm := seed
	for i := range r.s {
		sm, r.s[i] = splitmix64(sm)
	}
	// xoshiro256** must not start from the all-zero state.
	if r.s == [4]uint64{} {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

// splitmix64 advances the splitmix64 state and returns the next state and
// output value.
func splitmix64(state uint64) (next, out uint64) {
	state += 0x9e3779b97f4a7c15
	z := state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return state, z ^ (z >> 31)
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Split returns a new Source whose stream is statistically independent of
// the receiver's. The receiver advances by one draw.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high bits give a uniform dyadic rational in [0,1).
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation would be faster, but
	// simple modulo rejection keeps the stream easy to reason about.
	bound := uint64(n)
	limit := (math.MaxUint64 / bound) * bound
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % bound)
		}
	}
}

// Norm returns a standard normal deviate (mean 0, stddev 1) using the
// Box-Muller transform. Both deviates of a pair come from one
// math.Sincos, whose results equal math.Sin's and math.Cos's on the
// transform's angles in [0, 2π).
func (r *Source) Norm() float64 {
	if r.spareOK {
		r.spareOK = false
		return r.spare
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		radius := math.Sqrt(-2 * math.Log(u))
		sin, cos := math.Sincos(2 * math.Pi * v)
		r.spare = radius * sin
		r.spareOK = true
		return radius * cos
	}
}

// NormAt returns a normal deviate with the given mean and standard
// deviation.
func (r *Source) NormAt(mean, stddev float64) float64 {
	return mean + stddev*r.Norm()
}

// Exp returns an exponential deviate with the given rate parameter
// (events per unit time). It panics if rate <= 0.
func (r *Source) Exp(rate float64) float64 {
	if rate <= 0 {
		panic("rng: Exp with non-positive rate")
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		return -math.Log(u) / rate
	}
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (r *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Perm returns a uniformly random permutation of [0, n).
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle randomizes the order of n elements using the provided swap
// function, as in a Fisher-Yates shuffle.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
