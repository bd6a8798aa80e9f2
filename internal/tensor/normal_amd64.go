//go:build amd64

package tensor

// boxMullerAVX2 writes dst[i] = rng.BoxMuller(u[i], v[i]) for n > 0
// elements, n a multiple of 4, under the hasAVX2 gate.
//
//go:noescape
func boxMullerAVX2(dst, u, v *float64, n int)
