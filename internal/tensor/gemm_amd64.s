// AVX2 GEMM micro-kernels. Every kernel performs each lane's multiply and
// add as two separate single-precision operations (VMULPS then VADDPS,
// never VFMADD), so a lane's rounding sequence is exactly the scalar
// kernel's `acc += a*b` — the vector and pure-Go paths stay bit-identical.
// Accumulators start at zero and are folded into C once at the end, which
// is the panels' block-local-accumulator discipline.

#include "textflag.h"

// func cpuSupportsAVX2() bool
//
// True when the CPU reports AVX2 and the OS saves the YMM state
// (CPUID.1:ECX OSXSAVE+AVX, XCR0 XMM+YMM, CPUID.(7,0):EBX AVX2).
TEXT ·cpuSupportsAVX2(SB), NOSPLIT, $0-1
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, R8
	ANDL $(1<<27 | 1<<28), R8         // OSXSAVE | AVX
	CMPL R8, $(1<<27 | 1<<28)
	JNE  no
	XORL CX, CX
	XGETBV                            // XCR0 into DX:AX
	ANDL $6, AX                       // XMM | YMM state enabled
	CMPL AX, $6
	JNE  no
	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX                  // AVX2
	JZ   no
	MOVB $1, ret+0(FP)
	RET
no:
	MOVB $0, ret+0(FP)
	RET

// func gemmMicro4x16(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, kc int)
//
// C[0:4][0:16] += A[0:4][0:kc] · B[0:kc][0:16], with A row-major (stride
// lda floats), B rows ldb floats apart (16 for a packed tile, the matrix
// width when a skinny multiply reads B where it lives) and C row-major
// (stride ldc floats). kc must be >= 1.
TEXT ·gemmMicro4x16(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), R8
	MOVQ lda+8(FP), R12
	SHLQ $2, R12                      // lda in bytes
	LEAQ (R8)(R12*1), R9              // a row 1
	LEAQ (R9)(R12*1), R10             // a row 2
	LEAQ (R10)(R12*1), R11            // a row 3
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R13
	SHLQ $2, R13                      // ldb in bytes
	MOVQ kc+48(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop4x16:
	VMOVUPS (DI), Y8                  // b[p][0:8]
	VMOVUPS 32(DI), Y9                // b[p][8:16]

	VBROADCASTSS (R8), Y10
	VMULPS Y8, Y10, Y11               // a0*b (src1 = a, as the scalar kernel)
	VADDPS Y11, Y0, Y0                // acc += prod (src1 = acc)
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y1, Y1

	VBROADCASTSS (R9), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y2, Y2
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y3, Y3

	VBROADCASTSS (R10), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y4, Y4
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y5, Y5

	VBROADCASTSS (R11), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y6, Y6
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y7, Y7

	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, R10
	ADDQ $4, R11
	ADDQ R13, DI
	DECQ CX
	JNZ  loop4x16

	// Fold the block-local accumulators into C: c = c + acc (src1 = c,
	// matching the scalar `ci[j] += s`).
	MOVQ c+32(FP), DX
	MOVQ ldc+40(FP), R12
	SHLQ $2, R12

	VMOVUPS (DX), Y8
	VADDPS Y0, Y8, Y8
	VMOVUPS Y8, (DX)
	VMOVUPS 32(DX), Y9
	VADDPS Y1, Y9, Y9
	VMOVUPS Y9, 32(DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y2, Y8, Y8
	VMOVUPS Y8, (DX)
	VMOVUPS 32(DX), Y9
	VADDPS Y3, Y9, Y9
	VMOVUPS Y9, 32(DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y4, Y8, Y8
	VMOVUPS Y8, (DX)
	VMOVUPS 32(DX), Y9
	VADDPS Y5, Y9, Y9
	VMOVUPS Y9, 32(DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y6, Y8, Y8
	VMOVUPS Y8, (DX)
	VMOVUPS 32(DX), Y9
	VADDPS Y7, Y9, Y9
	VMOVUPS Y9, 32(DX)

	VZEROUPPER
	RET

// func gemmMicro1x16(a *float32, b *float32, ldb int, c *float32, kc int)
//
// C[0:16] += A[0:kc] · B[0:kc][0:16], B rows ldb floats apart. The
// row-remainder companion of gemmMicro4x16. kc must be >= 1.
TEXT ·gemmMicro1x16(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), DI
	MOVQ ldb+16(FP), R13
	SHLQ $2, R13                      // ldb in bytes
	MOVQ kc+32(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

loop1x16:
	VMOVUPS (DI), Y8
	VMOVUPS 32(DI), Y9
	VBROADCASTSS (R8), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VMULPS Y9, Y10, Y12
	VADDPS Y12, Y1, Y1
	ADDQ $4, R8
	ADDQ R13, DI
	DECQ CX
	JNZ  loop1x16

	MOVQ c+24(FP), DX
	VMOVUPS (DX), Y8
	VADDPS Y0, Y8, Y8
	VMOVUPS Y8, (DX)
	VMOVUPS 32(DX), Y9
	VADDPS Y1, Y9, Y9
	VMOVUPS Y9, 32(DX)

	VZEROUPPER
	RET

// func gemmMicro8x8(a *float32, lda int, b *float32, c *float32, ldc int, kc int)
//
// C[0:8][0:8] += A[0:8][0:kc] · B[0:kc][0:8], with A row-major (stride lda
// floats), B packed contiguously (stride 8 floats) and C row-major (stride
// ldc floats): the band kernel for outputs narrower than 16 columns (conv
// layers with 8 output channels). Eight rows give eight independent add
// chains, enough to cover the VADDPS latency with one B vector per step.
// kc must be >= 1.
TEXT ·gemmMicro8x8(SB), NOSPLIT, $0-48
	MOVQ a+0(FP), R8
	MOVQ lda+8(FP), R12
	SHLQ $2, R12                      // lda in bytes
	LEAQ (R12)(R12*2), R13            // 3*lda
	LEAQ (R8)(R12*4), R9              // a row 4
	MOVQ b+16(FP), DI
	MOVQ kc+40(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop8x8:
	VMOVUPS (DI), Y8                  // b[p][0:8]

	VBROADCASTSS (R8), Y9
	VMULPS Y8, Y9, Y10                // a0*b (src1 = a, as the scalar kernel)
	VADDPS Y10, Y0, Y0                // acc += prod (src1 = acc)

	VBROADCASTSS (R8)(R12*1), Y11
	VMULPS Y8, Y11, Y12
	VADDPS Y12, Y1, Y1

	VBROADCASTSS (R8)(R12*2), Y9
	VMULPS Y8, Y9, Y10
	VADDPS Y10, Y2, Y2

	VBROADCASTSS (R8)(R13*1), Y11
	VMULPS Y8, Y11, Y12
	VADDPS Y12, Y3, Y3

	VBROADCASTSS (R9), Y9
	VMULPS Y8, Y9, Y10
	VADDPS Y10, Y4, Y4

	VBROADCASTSS (R9)(R12*1), Y11
	VMULPS Y8, Y11, Y12
	VADDPS Y12, Y5, Y5

	VBROADCASTSS (R9)(R12*2), Y9
	VMULPS Y8, Y9, Y10
	VADDPS Y10, Y6, Y6

	VBROADCASTSS (R9)(R13*1), Y11
	VMULPS Y8, Y11, Y12
	VADDPS Y12, Y7, Y7

	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $32, DI
	DECQ CX
	JNZ  loop8x8

	// Fold into C: c = c + acc (src1 = c, matching the scalar `ci[j] += s`).
	MOVQ c+24(FP), DX
	MOVQ ldc+32(FP), R12
	SHLQ $2, R12

	VMOVUPS (DX), Y8
	VADDPS Y0, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y1, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y2, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y3, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y4, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y5, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y6, Y8, Y8
	VMOVUPS Y8, (DX)
	ADDQ R12, DX

	VMOVUPS (DX), Y8
	VADDPS Y7, Y8, Y8
	VMOVUPS Y8, (DX)

	VZEROUPPER
	RET

// func gemmMicro1x8(a *float32, b *float32, c *float32, kc int)
//
// C[0:8] += A[0:kc] · B[0:kc][0:8], B packed (stride 8 floats). The
// row-remainder companion of gemmMicro8x8. kc must be >= 1.
TEXT ·gemmMicro1x8(SB), NOSPLIT, $0-32
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), DI
	MOVQ kc+24(FP), CX

	VXORPS Y0, Y0, Y0

loop1x8:
	VMOVUPS (DI), Y8
	VBROADCASTSS (R8), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	ADDQ $4, R8
	ADDQ $32, DI
	DECQ CX
	JNZ  loop1x8

	MOVQ c+16(FP), DX
	VMOVUPS (DX), Y8
	VADDPS Y0, Y8, Y8
	VMOVUPS Y8, (DX)

	VZEROUPPER
	RET

// func gemmSaxpy4(a *float32, b *float32, c *float32, ldc int, nv int)
//
// The TransA kernel: C[r][j] += a[r] * b[j] for r in 0..3 and j in
// [0, nv), with C row-major (stride ldc floats) and a holding 4
// contiguous scalars. nv must be a positive multiple of 8. Accumulation
// goes straight into C — one fold per p step — exactly like the scalar
// TransA panel.
TEXT ·gemmSaxpy4(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	VBROADCASTSS (R8), Y12
	VBROADCASTSS 4(R8), Y13
	VBROADCASTSS 8(R8), Y14
	VBROADCASTSS 12(R8), Y15
	MOVQ b+8(FP), SI
	MOVQ c+16(FP), DX
	MOVQ ldc+24(FP), R12
	SHLQ $2, R12
	LEAQ (DX)(R12*1), R9
	LEAQ (R9)(R12*1), R10
	LEAQ (R10)(R12*1), R11
	MOVQ nv+32(FP), CX
	SHRQ $3, CX

loopSaxpy:
	VMOVUPS (SI), Y8

	VMULPS Y8, Y12, Y9                // a0*b (src1 = a)
	VMOVUPS (DX), Y10
	VADDPS Y9, Y10, Y10               // c += prod (src1 = c)
	VMOVUPS Y10, (DX)

	VMULPS Y8, Y13, Y9
	VMOVUPS (R9), Y10
	VADDPS Y9, Y10, Y10
	VMOVUPS Y10, (R9)

	VMULPS Y8, Y14, Y9
	VMOVUPS (R10), Y10
	VADDPS Y9, Y10, Y10
	VMOVUPS Y10, (R10)

	VMULPS Y8, Y15, Y9
	VMOVUPS (R11), Y10
	VADDPS Y9, Y10, Y10
	VMOVUPS Y10, (R11)

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, R9
	ADDQ $32, R10
	ADDQ $32, R11
	DECQ CX
	JNZ  loopSaxpy

	VZEROUPPER
	RET
