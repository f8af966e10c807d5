package rng

import "math"

// SmallZipfPopularity draws a small integer popularity in [1, max] from a
// Zipfian distribution with exponent s, as the paper's trace generator
// assigns "small integer popularities ... generated from a Zipfian
// distribution" to files.
func SmallZipfPopularity(r *RNG, max int, s float64) int {
	if max <= 1 {
		return 1
	}
	// Inverse-power sample over [1, max].
	sum := 0.0
	for i := 1; i <= max; i++ {
		sum += 1 / math.Pow(float64(i), s)
	}
	u := r.Float64() * sum
	acc := 0.0
	for i := 1; i < max; i++ {
		acc += 1 / math.Pow(float64(i), s)
		if u <= acc {
			return i
		}
	}
	return max // u falls in the last bucket (or past it by rounding)
}
