//go:build amd64

package tensor

// hasAVX2 gates the assembly micro-kernels. The scalar panels remain the
// reference implementation and produce bit-identical results (the kernels
// use separate VMULPS/VADDPS, never FMA).
var hasAVX2 = cpuSupportsAVX2()

// cpuSupportsAVX2 reports AVX2 with OS-enabled YMM state.
func cpuSupportsAVX2() bool

// gemmMicro4x16 computes C[0:4][0:16] += A[0:4][0:kc] · B, where A is
// row-major with stride lda, B's rows are ldb floats apart (16 for a packed
// tile), and C is row-major with stride ldc. kc must be >= 1.
//
//go:noescape
func gemmMicro4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, kc int)

// gemmMicro1x16 computes C[0:16] += A[0:kc] · B with B's rows ldb floats
// apart. kc must be >= 1.
//
//go:noescape
func gemmMicro1x16(a *float32, b *float32, ldb int, c *float32, kc int)

// gemmMicro8x8 computes C[0:8][0:8] += A[0:8][0:kc] · B, where A is
// row-major with stride lda, B is packed with stride 8 floats, and C is
// row-major with stride ldc. kc must be >= 1.
//
//go:noescape
func gemmMicro8x8(a *float32, lda int, b *float32, c *float32, ldc int, kc int)

// gemmMicro1x8 computes C[0:8] += A[0:kc] · B with B packed (stride 8
// floats). kc must be >= 1.
//
//go:noescape
func gemmMicro1x8(a *float32, b *float32, c *float32, kc int)

// gemmSaxpy4 computes C[r][0:nv] += a[r]*b[0:nv] for r in 0..3, C
// row-major with stride ldc. nv must be a positive multiple of 8.
//
//go:noescape
func gemmSaxpy4(a *float32, b *float32, c *float32, ldc int, nv int)
