// Package rng provides a deterministic pseudo-random number
// generator used by every stochastic component of the simulator (beam
// strike sampling, fault-site selection, workload input generation).
//
// Reproducibility is a hard requirement for the experiment harness: a
// campaign seeded with the same 64-bit seed must produce bit-identical
// results on every platform. The generator is xoshiro256** seeded through
// splitmix64, following the reference constructions by Blackman and
// Vigna. A stream is never shared by concurrent draws: exec.Session
// either seeds one stream per sample from its address (exec.SampleSeed)
// or draws every sample in order from one stream under a lock.
package rng

import "math"

// Rand is a deterministic xoshiro256** stream. The zero value is not
// usable; construct streams with New.
type Rand struct {
	s [4]uint64
}

// splitmix64 advances *x and returns the next splitmix64 output. It is
// used only for seeding, as recommended by the xoshiro authors.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a stream seeded from the given 64-bit seed.
func New(seed uint64) *Rand {
	r := &Rand{}
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// xoshiro must not start from the all-zero state; splitmix64 of any
	// seed cannot produce four zero outputs, but guard regardless.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
	return r
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Rand) Uint64() uint64 {
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

// Uint64n returns a uniform integer in [0, n). It panics if n == 0.
// Lemire's nearly-divisionless method with rejection keeps the result
// exactly uniform.
func (r *Rand) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	max := math.MaxUint64 - math.MaxUint64%n
	for {
		v := r.Uint64()
		if v < max {
			return v % n
		}
	}
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform float64 in [0, 1) with 53 random bits.
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *Rand) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}
