// Package rng provides deterministic, portable pseudo-random number
// generation for the simulator. Every stochastic component of the system
// (trace generation, filer prefetch outcomes, SSD latency noise) draws from
// an explicitly seeded generator so that a simulation run is exactly
// reproducible from its configuration.
//
// The core generator is PCG-XSH-RR 64/32 (O'Neill 2014) seeded through
// SplitMix64, chosen over math/rand for stable cross-version output and a
// cheap Fork operation that derives statistically independent streams.
package rng

import "math"

// splitMix64 advances a SplitMix64 state and returns the next output.
// It is used only for seeding so that nearby seeds produce unrelated streams.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// RNG is a PCG-XSH-RR 64/32 generator. The zero value is not valid; use New.
type RNG struct {
	state uint64
	inc   uint64 // stream selector; must be odd
}

// New returns a generator seeded with seed on the default stream.
func New(seed uint64) *RNG {
	return newStream(seed, 0)
}

// newStream returns a generator seeded with seed on the given stream.
// Generators with the same seed but different streams are independent.
func newStream(seed, stream uint64) *RNG {
	sm := seed
	r := &RNG{
		state: splitMix64(&sm),
		inc:   (splitMix64(&sm)+2*stream)*2 + 1,
	}
	// Advance past the (weak) initial state.
	r.uint32()
	r.uint32()
	return r
}

// Fork derives a new independent generator from r. The parent advances,
// so successive Forks yield distinct children.
func (r *RNG) Fork() *RNG {
	seed := uint64(r.uint32())<<32 | uint64(r.uint32())
	stream := uint64(r.uint32())
	return newStream(seed, stream)
}

// uint32 returns the next 32 uniformly distributed bits.
func (r *RNG) uint32() uint32 {
	old := r.state
	r.state = old*6364136223846793005 + r.inc
	xorshifted := uint32(((old >> 18) ^ old) >> 27)
	rot := uint32(old >> 59)
	return (xorshifted >> rot) | (xorshifted << ((-rot) & 31))
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	return uint64(r.uint32())<<32 | uint64(r.uint32())
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	return int(r.uint64n(uint64(n)))
}

// uint64n returns a uniform uint64 in [0, n) using Lemire's multiply-shift
// rejection method. It panics if n == 0.
func (r *RNG) uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n called with n == 0")
	}
	// Fast path for powers of two.
	if n&(n-1) == 0 {
		return r.Uint64() & (n - 1)
	}
	// Rejection sampling on the top bits to avoid modulo bias.
	threshold := -n % n
	for {
		v := r.Uint64()
		if v >= threshold {
			return v % n
		}
	}
}

// Float64 returns a uniform float64 in [0, 1) with 53 bits of precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// NormFloat64 returns a standard normal variate (Marsaglia polar method).
func (r *RNG) NormFloat64() float64 {
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s > 0 && s < 1 {
			return u * math.Sqrt(-2*math.Log(s)/s)
		}
	}
}

// LogNormal returns a lognormal variate with the given parameters of the
// underlying normal distribution.
func (r *RNG) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*r.NormFloat64())
}

// Pareto returns a Pareto variate with minimum xm and shape alpha.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	// Inverse transform: xm / U^(1/alpha); guard against U == 0.
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Poisson returns a Poisson variate with mean lambda. For small lambda it
// uses Knuth's product method; for large lambda the PTRS transformed
// rejection method would be preferable, but the simulator only draws I/O
// sizes with small means, so a normal approximation suffices above 30.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		// Normal approximation with continuity correction.
		v := math.Floor(lambda + math.Sqrt(lambda)*r.NormFloat64() + 0.5)
		if v < 0 {
			return 0
		}
		return int(v)
	}
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
