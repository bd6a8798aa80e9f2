//go:build amd64

package tensor

// The AVX2 vector kernels behind vec.go's exported passes, under the same
// hasAVX2 gate as the GEMM micro-kernels. Each takes n > 0 elements, n a
// multiple of vecBlock, and performs the lane operations of its *Ref loop
// in that loop's order. The gradient argument is spelled grad: g is a
// reserved register name in amd64 assembly.

//go:noescape
func axpyAVX2(alpha float32, x, y *float32, n int)

//go:noescape
func sgdStepAVX2(p, grad, v *float32, n int, scale, lr, mu, wd float32)

//go:noescape
func maxAbsAVX2(x *float32, n int) float32

//go:noescape
func quant8AVX2(q *int8, x *float32, n int, inv, scale float32, roundTrip bool)

//go:noescape
func dequant8AVX2(dst *float32, q *int8, n int, scale float32)

//go:noescape
func reluMaskAVX2(dst, grad, y *float32, n int)
