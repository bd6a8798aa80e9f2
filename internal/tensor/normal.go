package tensor

import "disttrain/internal/rng"

// normalBlock is how many uniform pairs FillNormal draws at a time, into
// stack arrays.
const normalBlock = 64

// FillNormal fills dst with standard normal variates from r: exactly the
// values, and the final state of r, that len(dst) calls of r.NormFloat64
// give. Each block's uniform pairs come from r.BoxMullerInputs; the
// multiple-of-4 prefix goes through an AVX2 kernel that reproduces
// rng.BoxMuller bit for bit, and the rest (all of it without AVX2 or off
// amd64) through rng.BoxMuller itself.
func FillNormal(dst []float64, r *rng.RNG) {
	var u, v [normalBlock]float64
	for len(dst) > 0 {
		n := min(len(dst), normalBlock)
		r.BoxMullerInputs(u[:n], v[:n])
		k := 0
		if hasAVX2 {
			k = n &^ 3
		}
		if k > 0 {
			boxMullerAVX2(&dst[0], &u[0], &v[0], k)
		}
		for i := k; i < n; i++ {
			dst[i] = rng.BoxMuller(u[i], v[i])
		}
		dst = dst[n:]
	}
}
