//go:build !amd64

package tensor

// Non-amd64 builds always take the scalar reference panels.
var hasAVX2 = false

func gemmMicro4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, kc int) {
	panic("tensor: gemmMicro4x16 requires amd64")
}

func gemmMicro1x16(a *float32, b *float32, ldb int, c *float32, kc int) {
	panic("tensor: gemmMicro1x16 requires amd64")
}

func gemmMicro8x8(a *float32, lda int, b *float32, c *float32, ldc int, kc int) {
	panic("tensor: gemmMicro8x8 requires amd64")
}

func gemmMicro1x8(a *float32, b *float32, c *float32, kc int) {
	panic("tensor: gemmMicro1x8 requires amd64")
}

func gemmSaxpy4(a *float32, b *float32, c *float32, ldc int, nv int) {
	panic("tensor: gemmSaxpy4 requires amd64")
}
