//go:build !amd64

package tensor

// Non-amd64 builds run rng.BoxMuller on every element: hasAVX2 is false.

func boxMullerAVX2(dst, u, v *float64, n int) { panic("tensor: boxMullerAVX2 requires amd64") }
