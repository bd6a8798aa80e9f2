// AVX2 kernels for pool.go's 2×2 max pooling. The scalar loops
// maxPoolRef and maxPoolBackRef are their specification; the kernels only
// compare, select and mask, so they reproduce those loops' bits exactly.
//
// Both take n > 0 outputs, n a multiple of 32, in rows of ow outputs, ow a
// multiple of 4, and walk them in chunks of four outputs: a chunk's inputs
// are 8 floats of an even input row (r0) and the 8 below them (r1, one row
// of 2·ow floats further). An iteration takes two chunks, A and B — eight
// outputs, one vector. After each chunk the input pointer moves 8 floats
// on, and past the odd row when the chunk ended an output row, which a
// CMOV decides: no branch on the geometry.

#include "textflag.h"

DATA poolOne<>+0(SB)/4, $0x3f800000   // 1.0
GLOBL poolOne<>(SB), RODATA|NOPTR, $4
DATA poolTwo<>+0(SB)/4, $0x40000000   // 2.0
GLOBL poolTwo<>(SB), RODATA|NOPTR, $4
DATA poolThree<>+0(SB)/4, $0x40400000 // 3.0
GLOBL poolThree<>(SB), RODATA|NOPTR, $4

// NEXTCHUNK(p) advances p, the r0 pointer of a chunk, to the next chunk's.
// R8 is the input row in bytes, R9 the chunks in an output row, R10 the
// chunks left in this one; clobbers R11 and the flags.
#define NEXTCHUNK(p) \
	XORL    R11, R11 \
	ADDQ    $32, p   \
	DECQ    R10      \
	CMOVQEQ R8, R11  \ // the row ended: skip r1 as well
	CMOVQEQ R9, R10  \
	ADDQ    R11, p

// SETUP loads the arguments shared by both kernels: n, ow → CX iterations
// of eight outputs, R8, R9, R10 as NEXTCHUNK wants them; the slot values
// 1, 2, 3 into Y13–Y15.
#define SETUP \
	MOVQ n+24(FP), CX                \
	SHRQ $3, CX                      \
	MOVQ ow+32(FP), R9               \
	MOVQ R9, R8                      \
	SHLQ $3, R8                      \ // 2·ow floats
	SHRQ $2, R9                      \
	MOVQ R9, R10                     \
	VBROADCASTSS poolOne<>(SB), Y13  \
	VBROADCASTSS poolTwo<>(SB), Y14  \
	VBROADCASTSS poolThree<>(SB), Y15

// func maxPoolAVX2(in, out, slot *float32, n, ow int)
//
// VSHUFPS splits A's and B's rows into the four cells of each window, in
// the lane order [A0 A1 B0 B1 | A2 A3 B2 B3]; the running maximum takes a
// cell where `cell > best` (VCMPPS GT_OQ: false when either is NaN) and
// keeps its bits otherwise, as the scalar `if v > best`; VPERMPD restores
// output order before the stores.
TEXT ·maxPoolAVX2(SB), NOSPLIT, $0-40
	MOVQ in+0(FP), SI
	MOVQ out+8(FP), DI
	MOVQ slot+16(FP), DX
	SETUP
maxPoolLoop:
	VMOVUPS (SI), Y0                  // A r0
	VMOVUPS (SI)(R8*1), Y1            // A r1
	NEXTCHUNK(SI)
	VMOVUPS (SI), Y2                  // B r0
	VMOVUPS (SI)(R8*1), Y3            // B r1
	NEXTCHUNK(SI)
	VSHUFPS $0x88, Y2, Y0, Y4         // slot 0 cells: best so far
	VSHUFPS $0xDD, Y2, Y0, Y5         // slot 1
	VSHUFPS $0x88, Y3, Y1, Y6         // slot 2
	VSHUFPS $0xDD, Y3, Y1, Y7         // slot 3
	VCMPPS    $0x1E, Y4, Y5, Y9       // cell > best
	VBLENDVPS Y9, Y5, Y4, Y4
	VANDPS    Y13, Y9, Y8             // slot: 1 or +0
	VCMPPS    $0x1E, Y4, Y6, Y9
	VBLENDVPS Y9, Y6, Y4, Y4
	VBLENDVPS Y9, Y14, Y8, Y8
	VCMPPS    $0x1E, Y4, Y7, Y9
	VBLENDVPS Y9, Y7, Y4, Y4
	VBLENDVPS Y9, Y15, Y8, Y8
	VPERMPD $0xD8, Y4, Y4             // [A0 A1 A2 A3 B0 B1 B2 B3]
	VPERMPD $0xD8, Y8, Y8
	VMOVUPS Y4, (DI)
	VMOVUPS Y8, (DX)
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ CX
	JNZ  maxPoolLoop
	VZEROUPPER
	RET

// func maxPoolBackAVX2(dx, grad, slot *float32, n, ow int)
//
// v = +0 + g; cell j of each window gets v where the slot's bits are j's
// (VPCMPEQD, as maxPoolBackRef compares them) and +0 elsewhere.
// VUNPCK[LH]PS interleave slots 0 and 1 (2 and 3) into r0 (r1) order
// within each 128-bit half; VPERM2F128 gathers A's halves and B's.
TEXT ·maxPoolBackAVX2(SB), NOSPLIT, $0-40
	MOVQ dx+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ slot+16(FP), DX
	SETUP
	VXORPS Y12, Y12, Y12
maxPoolBackLoop:
	VADDPS   (SI), Y12, Y0            // v = +0 + g
	VMOVDQU  (DX), Y1
	VPCMPEQD Y12, Y1, Y2              // slot 0
	VANDPS   Y0, Y2, Y2
	VPCMPEQD Y13, Y1, Y3              // slot 1
	VANDPS   Y0, Y3, Y3
	VPCMPEQD Y14, Y1, Y4
	VANDPS   Y0, Y4, Y4
	VPCMPEQD Y15, Y1, Y5
	VANDPS   Y0, Y5, Y5
	VUNPCKLPS  Y3, Y2, Y6             // [A0 A0 A1 A1 | B0 B0 B1 B1], slots 0 1
	VUNPCKHPS  Y3, Y2, Y7             // [A2 A2 A3 A3 | B2 B2 B3 B3]
	VPERM2F128 $0x20, Y7, Y6, Y8      // A r0
	VPERM2F128 $0x31, Y7, Y6, Y9      // B r0
	VUNPCKLPS  Y5, Y4, Y6             // slots 2 3
	VUNPCKHPS  Y5, Y4, Y7
	VPERM2F128 $0x20, Y7, Y6, Y10     // A r1
	VPERM2F128 $0x31, Y7, Y6, Y11     // B r1
	VMOVUPS Y8, (DI)
	VMOVUPS Y10, (DI)(R8*1)
	NEXTCHUNK(DI)
	VMOVUPS Y9, (DI)
	VMOVUPS Y11, (DI)(R8*1)
	NEXTCHUNK(DI)
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  maxPoolBackLoop
	VZEROUPPER
	RET
