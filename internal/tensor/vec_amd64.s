// AVX2 kernels for the element-wise passes of vec.go. The scalar *Ref loop
// of each pass is its specification: a kernel performs every lane's
// operations in that loop's order with separate VMULPS/VADDPS (never FMA),
// and gives each instruction the first source operand the compiled scalar
// loop gives it — when both operands are NaN, x86 returns the first — so
// results are bit-identical down to NaN payloads. Go's assembler writes
// the operands reversed: in `VADDPS b, a, dst`, a is the first source.
//
// Every kernel takes n > 0, a multiple of 32, and processes 32 elements per
// iteration.

#include "textflag.h"

// Broadcast constants and the dword permutation that undoes the 128-bit
// lane interleave of VPACKSSDW/VPACKSSWB.
DATA vecSignMask<>+0(SB)/4, $0x80000000
GLOBL vecSignMask<>(SB), RODATA|NOPTR, $4
DATA vecAbsMask<>+0(SB)/4, $0x7fffffff
GLOBL vecAbsMask<>(SB), RODATA|NOPTR, $4
DATA vecHalf<>+0(SB)/4, $0x3f000000      // 0.5
GLOBL vecHalf<>(SB), RODATA|NOPTR, $4
DATA vecCodeMax<>+0(SB)/4, $127
GLOBL vecCodeMax<>(SB), RODATA|NOPTR, $4
DATA vecCodeMin<>+0(SB)/4, $-127
GLOBL vecCodeMin<>(SB), RODATA|NOPTR, $4
DATA vecPackPerm<>+0(SB)/4, $0
DATA vecPackPerm<>+4(SB)/4, $4
DATA vecPackPerm<>+8(SB)/4, $1
DATA vecPackPerm<>+12(SB)/4, $5
DATA vecPackPerm<>+16(SB)/4, $2
DATA vecPackPerm<>+20(SB)/4, $6
DATA vecPackPerm<>+24(SB)/4, $3
DATA vecPackPerm<>+28(SB)/4, $7
GLOBL vecPackPerm<>(SB), RODATA|NOPTR, $32

// func axpyAVX2(alpha float32, x, y *float32, n int)
//
// y[i] = x[i]*alpha + y[i], as `y[i] += alpha * v` compiles: the product
// has x as first source, the sum has the product.
#define AXPY8(off, r) \
	VMOVUPS off(SI), r    \
	VMULPS  Y15, r, r     \
	VADDPS  off(DI), r, r \
	VMOVUPS r, off(DI)

TEXT ·axpyAVX2(SB), NOSPLIT, $0-32
	VBROADCASTSS alpha+0(FP), Y15
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MOVQ n+24(FP), CX
	SHRQ $5, CX
axpyLoop:
	AXPY8(0, Y0)
	AXPY8(32, Y1)
	AXPY8(64, Y2)
	AXPY8(96, Y3)
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  axpyLoop
	VZEROUPPER
	RET

// func sgdStepAVX2(p, grad, v *float32, n int, scale, lr, mu, wd float32)
//
// gi = g*scale; vi = (gi + v*mu) + p*wd; v = vi; p = p - vi*lr — the
// operand order the compiler gives `mu*v[i] + gi + wd*p[i]` and
// `p[i] -= lr * vi`.
#define SGD8(off, a, b, c) \
	VMOVUPS off(SI), a    \
	VMULPS  Y12, a, a     \ // gi = g*scale
	VMOVUPS off(DX), b    \
	VMULPS  Y14, b, b     \ // v*mu
	VADDPS  b, a, a       \ // gi + v*mu
	VMOVUPS off(DI), b    \
	VMULPS  Y15, b, c     \ // p*wd
	VADDPS  c, a, a       \ // vi
	VMOVUPS a, off(DX)    \
	VMULPS  Y13, a, a     \ // vi*lr
	VSUBPS  a, b, b       \ // p - vi*lr
	VMOVUPS b, off(DI)

TEXT ·sgdStepAVX2(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $5, CX
	VBROADCASTSS scale+32(FP), Y12
	VBROADCASTSS lr+36(FP), Y13
	VBROADCASTSS mu+40(FP), Y14
	VBROADCASTSS wd+44(FP), Y15
sgdLoop:
	SGD8(0, Y0, Y1, Y2)
	SGD8(32, Y3, Y4, Y5)
	SGD8(64, Y6, Y7, Y8)
	SGD8(96, Y9, Y10, Y11)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	DECQ CX
	JNZ  sgdLoop
	VZEROUPPER
	RET

// func maxAbsAVX2(x *float32, n int) float32
//
// VMAXPS returns its second source unless the first is greater, so with
// |x| first and the running maximum second a NaN leaves the maximum as it
// was — the scalar `if a > m { m = a }`. The maxima are never NaN, which
// makes the final fold order-free.
TEXT ·maxAbsAVX2(SB), NOSPLIT, $0-20
	MOVQ x+0(FP), SI
	MOVQ n+8(FP), CX
	SHRQ $5, CX
	VBROADCASTSS vecAbsMask<>(SB), Y15
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
maxAbsLoop:
	VANDPS (SI), Y15, Y4
	VMAXPS Y0, Y4, Y0
	VANDPS 32(SI), Y15, Y5
	VMAXPS Y1, Y5, Y1
	VANDPS 64(SI), Y15, Y6
	VMAXPS Y2, Y6, Y2
	VANDPS 96(SI), Y15, Y7
	VMAXPS Y3, Y7, Y3
	ADDQ $128, SI
	DECQ CX
	JNZ  maxAbsLoop
	VMAXPS Y1, Y0, Y0
	VMAXPS Y3, Y2, Y2
	VMAXPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VMAXPS X1, X0, X0
	VPSHUFD $0x4e, X0, X1             // swap the 64-bit halves
	VMAXPS X1, X0, X0
	VPSHUFD $0xb1, X0, X1             // swap within each pair
	VMAXPS X1, X0, X0
	VZEROUPPER
	MOVSS X0, ret+16(FP)
	RET

// func quant8AVX2(q *int8, x *float32, n int, inv, scale float32, roundTrip bool)
//
// Per lane: r = x*inv; r += copysign(0.5, r); truncate (NaN and
// out-of-range give the minimum int32, as CVTTSS2SL does); clamp to ±127.
// Four vectors of codes are packed to 32 bytes; the round-trip loop also
// stores float(code)*scale over x.
#define QUANT8(off, r, t) \
	VMOVUPS    off(SI), r \
	VMULPS     Y15, r, r  \ // r = x*inv
	VANDPS     Y13, r, t  \
	VORPS      Y12, t, t  \ // copysign(0.5, r)
	VADDPS     t, r, r    \
	VCVTTPS2DQ r, r       \
	VPMINSD    Y11, r, r  \
	VPMAXSD    Y10, r, r

#define BACK8(off, r, t) \
	VCVTDQ2PS r, t        \
	VMULPS    Y14, t, t   \ // float(code)*scale
	VMOVUPS   t, off(SI)

#define PACK32 \
	VPACKSSDW Y1, Y0, Y0  \
	VPACKSSDW Y3, Y2, Y2  \
	VPACKSSWB Y2, Y0, Y0  \
	VPERMD    Y0, Y9, Y0  \
	VMOVDQU   Y0, (DI)

TEXT ·quant8AVX2(SB), NOSPLIT, $0-33
	MOVQ q+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $5, CX
	VBROADCASTSS inv+24(FP), Y15
	VBROADCASTSS scale+28(FP), Y14
	VBROADCASTSS vecSignMask<>(SB), Y13
	VBROADCASTSS vecHalf<>(SB), Y12
	VPBROADCASTD vecCodeMax<>(SB), Y11
	VPBROADCASTD vecCodeMin<>(SB), Y10
	VMOVDQU vecPackPerm<>(SB), Y9
	MOVBLZX roundTrip+32(FP), AX
	TESTL AX, AX
	JNZ  quantBackLoop
quantLoop:
	QUANT8(0, Y0, Y4)
	QUANT8(32, Y1, Y5)
	QUANT8(64, Y2, Y6)
	QUANT8(96, Y3, Y7)
	PACK32
	ADDQ $128, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  quantLoop
	VZEROUPPER
	RET
quantBackLoop:
	QUANT8(0, Y0, Y4)
	BACK8(0, Y0, Y4)
	QUANT8(32, Y1, Y5)
	BACK8(32, Y1, Y5)
	QUANT8(64, Y2, Y6)
	BACK8(64, Y2, Y6)
	QUANT8(96, Y3, Y7)
	BACK8(96, Y3, Y7)
	PACK32
	ADDQ $128, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  quantBackLoop
	VZEROUPPER
	RET

// func dequant8AVX2(dst *float32, q *int8, n int, scale float32)
//
// dst[i] = float(q[i])*scale.
#define DEQUANT8(qoff, off, r) \
	VPMOVSXBD qoff(SI), r \
	VCVTDQ2PS r, r        \
	VMULPS    Y15, r, r   \
	VMOVUPS   r, off(DI)

TEXT ·dequant8AVX2(SB), NOSPLIT, $0-28
	MOVQ dst+0(FP), DI
	MOVQ q+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $5, CX
	VBROADCASTSS scale+24(FP), Y15
dequantLoop:
	DEQUANT8(0, 0, Y0)
	DEQUANT8(8, 32, Y1)
	DEQUANT8(16, 64, Y2)
	DEQUANT8(24, 96, Y3)
	ADDQ $32, SI
	ADDQ $128, DI
	DECQ CX
	JNZ  dequantLoop
	VZEROUPPER
	RET

// func reluMaskAVX2(dst, grad, y *float32, n int)
//
// dst[i] = grad[i] where y[i] > 0 (ordered: a NaN y fails), +0 elsewhere.
#define RELUMASK8(off, r) \
	VMOVUPS off(DX), r       \
	VCMPPS  $0x1E, Y15, r, r \ // y > 0
	VANDPS  off(SI), r, r    \
	VMOVUPS r, off(DI)

TEXT ·reluMaskAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ y+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $5, CX
	VXORPS Y15, Y15, Y15
reluMaskLoop:
	RELUMASK8(0, Y0)
	RELUMASK8(32, Y1)
	RELUMASK8(64, Y2)
	RELUMASK8(96, Y3)
	ADDQ $128, SI
	ADDQ $128, DI
	ADDQ $128, DX
	DECQ CX
	JNZ  reluMaskLoop
	VZEROUPPER
	RET

// func addAVX2(dst, a, b *float32, n int, relu bool)
//
// dst[i] = a[i] + b[i] with a as first source, as `a[i] + b[i]` compiles;
// the ReLU loop then keeps the sums that are > 0 (ordered: a NaN sum
// fails) and clears the rest to +0.
#define ADD8(off, r) \
	VMOVUPS off(SI), r    \
	VADDPS  off(DX), r, r \
	VMOVUPS r, off(DI)

#define ADDRELU8(off, r, t) \
	VMOVUPS off(SI), r       \
	VADDPS  off(DX), r, r    \
	VCMPPS  $0x1E, Y15, r, t \ // sum > 0
	VANDPS  t, r, r          \
	VMOVUPS r, off(DI)

TEXT ·addAVX2(SB), NOSPLIT, $0-33
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $5, CX
	MOVBLZX relu+32(FP), AX
	TESTL AX, AX
	JNZ  addReLULoop
addLoop:
	ADD8(0, Y0)
	ADD8(32, Y1)
	ADD8(64, Y2)
	ADD8(96, Y3)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	DECQ CX
	JNZ  addLoop
	VZEROUPPER
	RET
addReLULoop:
	VXORPS Y15, Y15, Y15
addReLULoopBody:
	ADDRELU8(0, Y0, Y4)
	ADDRELU8(32, Y1, Y5)
	ADDRELU8(64, Y2, Y6)
	ADDRELU8(96, Y3, Y7)
	ADDQ $128, SI
	ADDQ $128, DX
	ADDQ $128, DI
	DECQ CX
	JNZ  addReLULoopBody
	VZEROUPPER
	RET

// func scaleAVX2(alpha float32, x *float32, n int)
//
// x[i] = x[i]*alpha, as `x[i] *= alpha` compiles: x is the first source.
#define SCALE8(off, r) \
	VMOVUPS off(DI), r \
	VMULPS  Y15, r, r  \
	VMOVUPS r, off(DI)

TEXT ·scaleAVX2(SB), NOSPLIT, $0-24
	VBROADCASTSS alpha+0(FP), Y15
	MOVQ x+8(FP), DI
	MOVQ n+16(FP), CX
	SHRQ $5, CX
scaleLoop:
	SCALE8(0, Y0)
	SCALE8(32, Y1)
	SCALE8(64, Y2)
	SCALE8(96, Y3)
	ADDQ $128, DI
	DECQ CX
	JNZ  scaleLoop
	VZEROUPPER
	RET
