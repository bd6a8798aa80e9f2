//go:build amd64

package tensor

// The AVX2 max-pool kernels behind pool.go, under the hasAVX2 gate. Each
// takes n > 0 outputs, n a multiple of vecBlock, in rows of ow outputs, ow
// a multiple of 4.

//go:noescape
func maxPoolAVX2(in, out, slot *float32, n, ow int)

//go:noescape
func maxPoolBackAVX2(dx, grad, slot *float32, n, ow int)
