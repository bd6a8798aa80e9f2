// AVX2 Box–Muller: dst[i] = Sqrt(-2·Log(u[i]))·Cos(2π·v[i]), bit for bit
// what rng.BoxMuller returns on amd64, four lanes at a time. Two references
// fix the operation order:
//
//   - Log is math.archLog (math/log_amd64.s), the assembly amd64 runs, not
//     the portable log.go: its reduction halves the fraction when
//     f1 <= Sqrt2/2 (CMPSD …, 5 — "not less than"), where log.go tests <.
//   - Cos is the pure-Go math.cos: Cody–Waite reduction into octants of π/4
//     with the three-part constant, both Cephes polynomials evaluated on
//     every lane and one chosen per lane by a blend, the sign applied last.
//
// Every product and sum is a separate VMULPD/VADDPD (never FMA), and each
// constant is the bit pattern the references use. Inputs are finite, u in
// [2⁻⁵³, 1) and v in [0, 1) — what rng.BoxMullerInputs draws — so the
// references' special cases (zero, negative, Inf, NaN, huge arguments) are
// never taken and NaN payloads are not in play.

#include "textflag.h"

#define BMCONST(name, bits) \
	DATA name<>+0(SB)/8, $bits  \
	DATA name<>+8(SB)/8, $bits  \
	DATA name<>+16(SB)/8, $bits \
	DATA name<>+24(SB)/8, $bits \
	GLOBL name<>(SB), RODATA|NOPTR, $32

BMCONST(bmMant, 0x000fffffffffffff)
BMCONST(bmHalf, 0x3fe0000000000000)    // 0.5: also the exponent of f1 in [0.5, 1)
BMCONST(bmOne, 0x3ff0000000000000)
BMCONST(bmTwo, 0x4000000000000000)
BMCONST(bmNegTwo, 0xc000000000000000)
BMCONST(bmMagic, 0x4330000000000000)   // 2⁵²: n | bits(2⁵²) is the double 2⁵² + n
BMCONST(bmExpBias, 0x43300000000003fe) // 2⁵² + 1022
BMCONST(bmHSqrt2, 0x3fe6a09e667f3bcd)  // Sqrt2/2
BMCONST(bmLn2Hi, 0x3fe62e42fee00000)
BMCONST(bmLn2Lo, 0x3dea39ef35793c76)
BMCONST(bmL1, 0x3fe5555555555593)
BMCONST(bmL2, 0x3fd999999997fa04)
BMCONST(bmL3, 0x3fd2492494229359)
BMCONST(bmL4, 0x3fcc71c51d8e78af)
BMCONST(bmL5, 0x3fc7466496cb03de)
BMCONST(bmL6, 0x3fc39a09d078c69f)
BMCONST(bmL7, 0x3fc2f112df3e5244)
BMCONST(bmTwoPi, 0x401921fb54442d18)
BMCONST(bm4OverPi, 0x3ff45f306dc9c883)
BMCONST(bmPI4A, 0x3fe921fb40000000)
BMCONST(bmPI4B, 0x3e64442d00000000)
BMCONST(bmPI4C, 0x3ce8469898cc5170)
BMCONST(bmSin0, 0x3de5d8fd1fd19ccd)
BMCONST(bmSin1, 0xbe5ae5e5a9291f5d)
BMCONST(bmSin2, 0x3ec71de3567d48a1)
BMCONST(bmSin3, 0xbf2a01a019bfdf03)
BMCONST(bmSin4, 0x3f8111111110f7d0)
BMCONST(bmSin5, 0xbfc5555555555548)
BMCONST(bmCos0, 0xbda8fa49a0861a9b)
BMCONST(bmCos1, 0x3e21ee9d7b4e3f05)
BMCONST(bmCos2, 0xbe927e4f7eac4bc6)
BMCONST(bmCos3, 0x3efa01a019c844f5)
BMCONST(bmCos4, 0xbf56c16c16c14f91)
BMCONST(bmCos5, 0x3fa555555555554b)
BMCONST(bmInt1, 0x0000000000000001)
BMCONST(bmInt2, 0x0000000000000002)
BMCONST(bmNotInt1, 0xfffffffffffffffe)
BMCONST(bmSign, 0x8000000000000000)

// func boxMullerAVX2(dst, u, v *float64, n int)
//
// n > 0, a multiple of 4. Comments name the reference's variables.
TEXT ·boxMullerAVX2(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ u+8(FP), SI
	MOVQ v+16(FP), DX
	MOVQ n+24(FP), CX
	SHRQ $2, CX

bmLoop:
	// Log(u), as archLog. f1, ki := Frexp(u); k := float64(ki) — the
	// exponent field lands in a double through 2⁵²: AVX2 has no int64 →
	// double conversion.
	VMOVUPD (SI), Y0
	VANDPD  bmMant<>(SB), Y0, Y1
	VORPD   bmHalf<>(SB), Y1, Y1          // f1
	VPSRLQ  $52, Y0, Y0
	VPOR    bmMagic<>(SB), Y0, Y0
	VSUBPD  bmExpBias<>(SB), Y0, Y0       // k

	// if f1 <= Sqrt2/2 { k -= 1; f1 *= 2 }, through a 0-or-1 as archLog
	VCMPPD  $2, bmHSqrt2<>(SB), Y1, Y2    // f1 <= Sqrt2/2
	VANDPD  bmOne<>(SB), Y2, Y2
	VSUBPD  Y2, Y0, Y0
	VADDPD  bmOne<>(SB), Y2, Y2
	VMULPD  Y2, Y1, Y1
	VSUBPD  bmOne<>(SB), Y1, Y1           // f = f1 - 1

	VADDPD  bmTwo<>(SB), Y1, Y2
	VDIVPD  Y2, Y1, Y2                    // s = f / (2 + f)
	VMULPD  Y2, Y2, Y3                    // s2
	VMULPD  Y3, Y3, Y4                    // s4

	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD  bmL7<>(SB), Y4, Y5
	VADDPD  bmL5<>(SB), Y5, Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  bmL3<>(SB), Y5, Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  bmL1<>(SB), Y5, Y5
	VMULPD  Y5, Y3, Y3                    // t1

	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD  bmL6<>(SB), Y4, Y5
	VADDPD  bmL4<>(SB), Y5, Y5
	VMULPD  Y4, Y5, Y5
	VADDPD  bmL2<>(SB), Y5, Y5
	VMULPD  Y5, Y4, Y4                    // t2
	VADDPD  Y4, Y3, Y3                    // R = t1 + t2

	VMULPD  bmHalf<>(SB), Y1, Y4
	VMULPD  Y1, Y4, Y4                    // hfsq = 0.5 * f * f

	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD  Y4, Y3, Y3
	VMULPD  Y3, Y2, Y2
	VMULPD  bmLn2Lo<>(SB), Y0, Y3
	VADDPD  Y3, Y2, Y2
	VSUBPD  Y2, Y4, Y4
	VSUBPD  Y1, Y4, Y4
	VMULPD  bmLn2Hi<>(SB), Y0, Y0
	VSUBPD  Y4, Y0, Y0                    // Log(u)

	VMULPD  bmNegTwo<>(SB), Y0, Y0
	VSQRTPD Y0, Y0                        // Sqrt(-2*Log(u))

	// Cos(x), x = 2π·v, as math.cos. j := uint64(x * (4/Pi)), rounded up
	// to even (map zeros to origin), is kept as the low bits of 2⁵² + j.
	VMOVUPD  bmTwoPi<>(SB), Y6
	VMULPD   (DX), Y6, Y6                 // x
	VMULPD   bm4OverPi<>(SB), Y6, Y7
	VROUNDPD $3, Y7, Y7                   // truncate
	VADDPD   bmMagic<>(SB), Y7, Y7
	VPADDQ   bmInt1<>(SB), Y7, Y7
	VPAND    bmNotInt1<>(SB), Y7, Y7      // 2⁵² + j, j even
	VSUBPD   bmMagic<>(SB), Y7, Y8        // y

	// z = ((x - y*PI4A) - y*PI4B) - y*PI4C
	VMULPD bmPI4A<>(SB), Y8, Y9
	VSUBPD Y9, Y6, Y6
	VMULPD bmPI4B<>(SB), Y8, Y9
	VSUBPD Y9, Y6, Y6
	VMULPD bmPI4C<>(SB), Y8, Y9
	VSUBPD Y9, Y6, Y6                     // z
	VMULPD Y6, Y6, Y8                     // zz

	// z + z*zz*((((((_sin[0]*zz)+_sin[1])*zz+_sin[2])*zz+_sin[3])*zz+_sin[4])*zz+_sin[5])
	VMULPD bmSin0<>(SB), Y8, Y9
	VADDPD bmSin1<>(SB), Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD bmSin2<>(SB), Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD bmSin3<>(SB), Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD bmSin4<>(SB), Y9, Y9
	VMULPD Y8, Y9, Y9
	VADDPD bmSin5<>(SB), Y9, Y9
	VMULPD Y8, Y6, Y10
	VMULPD Y10, Y9, Y9
	VADDPD Y9, Y6, Y9                     // sine branch

	// 1.0 - 0.5*zz + zz*zz*((((((_cos[0]*zz)+_cos[1])*zz+_cos[2])*zz+_cos[3])*zz+_cos[4])*zz+_cos[5])
	VMULPD  bmCos0<>(SB), Y8, Y10
	VADDPD  bmCos1<>(SB), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  bmCos2<>(SB), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  bmCos3<>(SB), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  bmCos4<>(SB), Y10, Y10
	VMULPD  Y8, Y10, Y10
	VADDPD  bmCos5<>(SB), Y10, Y10
	VMULPD  Y8, Y8, Y11
	VMULPD  Y11, Y10, Y10
	VMULPD  bmHalf<>(SB), Y8, Y11
	VMOVUPD bmOne<>(SB), Y12
	VSUBPD  Y11, Y12, Y12
	VADDPD  Y10, Y12, Y10                 // cosine branch

	// Octant j&7 ∈ {0, 2, 4, 6}: the sine branch where bit 1 is set, the
	// sign flipped where bits 1 and 2 differ.
	VPAND     bmInt2<>(SB), Y7, Y11
	VPCMPEQQ  bmInt2<>(SB), Y11, Y11
	VBLENDVPD Y11, Y9, Y10, Y10
	VPSLLQ    $62, Y7, Y11
	VPSLLQ    $61, Y7, Y12
	VPXOR     Y12, Y11, Y11
	VPAND     bmSign<>(SB), Y11, Y11
	VXORPD    Y11, Y10, Y10               // Cos(x)

	VMULPD  Y10, Y0, Y0
	VMOVUPD Y0, (DI)

	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JNZ  bmLoop
	VZEROUPPER
	RET
