// Package rng provides a small, fast, splittable deterministic random
// number generator used throughout the repository.
//
// Experiments in this repo must be exactly reproducible from a single seed:
// each worker, each dataset shard, and each stochastic decision (gossip
// probability draws, compute-time jitter) draws from its own stream split
// off the experiment seed, so adding workers or reordering goroutines never
// perturbs another component's randomness.
//
// The generator is SplitMix64 feeding a xoshiro256** state, which is more
// than adequate statistically for simulation workloads and has a trivial,
// allocation-free implementation.
package rng

import "math"

// RNG is a deterministic pseudo-random number generator. It is NOT safe for
// concurrent use; split one stream per goroutine instead (see Split).
type RNG struct {
	s [4]uint64
}

// splitMix64 advances x and returns the next SplitMix64 output. It is used
// for seeding and splitting so that correlated seeds (0, 1, 2, ...) still
// produce decorrelated streams.
func splitMix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a generator seeded from seed.
func New(seed uint64) *RNG {
	r := &RNG{}
	x := seed
	for i := range r.s {
		r.s[i] = splitMix64(&x)
	}
	// xoshiro must not start at the all-zero state.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

// State returns the generator's raw xoshiro256** state words, so a stream
// can be checkpointed mid-sequence and resumed exactly with SetState.
func (r *RNG) State() [4]uint64 { return r.s }

// SetState restores a state captured by State: the generator continues the
// original stream from exactly where the capture happened. The all-zero
// state (invalid for xoshiro) is replaced with New(0)'s state.
func (r *RNG) SetState(s [4]uint64) {
	if s[0]|s[1]|s[2]|s[3] == 0 {
		*r = *New(0)
		return
	}
	r.s = s
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// next is one xoshiro256** step over a state held in four words: it
// returns the output and the advanced state. Taking the words by value
// lets a bulk draw keep them in registers.
func next(s0, s1, s2, s3 uint64) (out, n0, n1, n2, n3 uint64) {
	out = rotl(s1*5, 7) * 9
	t := s1 << 17
	s2 ^= s0
	s3 ^= s1
	s1 ^= s2
	s0 ^= s3
	s2 ^= t
	s3 = rotl(s3, 45)
	return out, s0, s1, s2, s3
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	out, s0, s1, s2, s3 := next(r.s[0], r.s[1], r.s[2], r.s[3])
	r.s = [4]uint64{s0, s1, s2, s3}
	return out
}

// Split returns a new generator whose stream is statistically independent of
// the receiver's. The receiver is advanced; successive Split calls yield
// distinct streams. The label decorrelates splits made for different
// purposes from the same parent state.
func (r *RNG) Split(label uint64) *RNG {
	x := r.Uint64() ^ (label * 0xd1342543de82ef95)
	child := &RNG{}
	for i := range child.s {
		child.s[i] = splitMix64(&x)
	}
	if child.s[0]|child.s[1]|child.s[2]|child.s[3] == 0 {
		child.s[0] = 1
	}
	return child
}

// Float64 returns a uniform float64 in [0, 1).
func (r *RNG) Float64() float64 { return unit(r.Uint64()) }

// unit maps 64 random bits to a float64 in [0, 1): the top 53 bits, scaled.
func unit(x uint64) float64 { return float64(x>>11) / (1 << 53) }

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
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

// Shuffle randomly permutes the first n elements using swap, mirroring
// math/rand's contract.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a standard normal variate: BoxMuller of one pair of
// BoxMullerInputs (one value per call keeps the implementation stateless).
func (r *RNG) NormFloat64() float64 {
	var u, v [1]float64
	r.BoxMullerInputs(u[:], v[:])
	return BoxMuller(u[0], v[0])
}

// BoxMuller is the transform behind NormFloat64: a standard normal variate
// from u in (0, 1) and v in [0, 1). It is the specification a bulk kernel
// (tensor.FillNormal) reproduces bit for bit.
func BoxMuller(u, v float64) float64 {
	return math.Sqrt(-2*math.Log(u)) * math.Cos(2*math.Pi*v)
}

// BoxMullerInputs fills u and v (v at least as long as u) with the uniform
// pairs len(u) calls of NormFloat64 would draw, in the same order: u =
// Float64() redrawn while it is 0, then v = Float64(). The generator ends
// where those calls would leave it. It returns the number of redrawn u
// words: the draw took 2·len(u) words plus that many.
func (r *RNG) BoxMullerInputs(u, v []float64) (redraws int) {
	v = v[:len(u)]
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var x uint64
	for i := range u {
		for {
			x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
			if x>>11 != 0 { // unit(x) != 0
				break
			}
			redraws++
		}
		u[i] = unit(x)
		x, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		v[i] = unit(x)
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return redraws
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool {
	return r.Float64() < p
}
