//go:build !amd64

package tensor

// Non-amd64 builds run the reference loops: hasAVX2 is false, so kernelLen
// is 0 and none of these is reached.

func axpyAVX2(alpha float32, x, y *float32, n int) { panic("tensor: axpyAVX2 requires amd64") }

func sgdStepAVX2(p, grad, v *float32, n int, scale, lr, mu, wd float32) {
	panic("tensor: sgdStepAVX2 requires amd64")
}

func maxAbsAVX2(x *float32, n int) float32 { panic("tensor: maxAbsAVX2 requires amd64") }

func quant8AVX2(q *int8, x *float32, n int, inv, scale float32, roundTrip bool) {
	panic("tensor: quant8AVX2 requires amd64")
}

func dequant8AVX2(dst *float32, q *int8, n int, scale float32) {
	panic("tensor: dequant8AVX2 requires amd64")
}

func reluMaskAVX2(dst, grad, y *float32, n int) { panic("tensor: reluMaskAVX2 requires amd64") }

func addAVX2(dst, a, b *float32, n int, relu bool) { panic("tensor: addAVX2 requires amd64") }

func scaleAVX2(alpha float32, x *float32, n int) { panic("tensor: scaleAVX2 requires amd64") }
