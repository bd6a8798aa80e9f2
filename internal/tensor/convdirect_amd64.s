// AVX2 kernels for the direct convolution of convdirect.go. The scalar
// conv*Ref loop of each routine is its specification: a kernel performs
// every lane's operations in that loop's order with separate VMULPS/VADDPS
// (never FMA), so every result has the loop's bits. Each instruction's first
// source operand — the one whose payload x86 keeps when both are NaN — is
// the one the compiled loop's four-wide body uses (go build -gcflags=-S);
// the loops' own remainder bodies compile to the other order in places, so
// as in gemm.go a NaN is a NaN and its payload is nobody's contract. Go's
// assembler writes the operands reversed: in `VADDPS b, a, dst`, a is the
// first source.

#include "textflag.h"

// One output channel of a convFwd8 step: acc += patch(Y8) * w[r][p].
#define FWDMAC(wmem, acc) \
	VBROADCASTSS wmem, Y9 \
	VMULPS       Y8, Y9, Y10 \ // w*patch, w first
	VADDPS       Y10, acc, acc

// func convFwd8(x *float32, xrow int, koff *int32, kc int, w *float32, ldw int,
//	y *float32, ldy, yrow int, bias *float32, rows, nv, flags int)
//
// For each row and each group of 8 columns: eight accumulators (one per
// output channel, lanes across ox) sum kc products from +0, p ascending;
// then per channel cell = (+0 | y) + acc, on the last block cell + bias and
// the ReLU clamp, and the store. The accumulators pass through the frame so
// the epilogue is one loop with the flag tests inside.
TEXT ·convFwd8(SB), NOSPLIT, $256-104
	MOVQ x+0(FP), SI                  // x at (row, 0)
	MOVQ ldw+40(FP), R12
	SHLQ $2, R12                      // ldw in bytes
	LEAQ (R12)(R12*2), R13            // 3*ldw
	MOVQ y+48(FP), R10                // y at (channel 0, row, column group)
	MOVQ ldy+56(FP), R11
	SHLQ $2, R11
	MOVQ rows+80(FP), R14
	VXORPS Y13, Y13, Y13              // +0

fwdRow:
	MOVQ SI, BX                       // x at (row, column group)
	MOVQ nv+88(FP), R15

fwdVec:
	MOVQ w+32(FP), R8                 // w rows 0..3 at p
	LEAQ (R8)(R12*4), R9              // w rows 4..7 at p
	MOVQ koff+16(FP), DI
	MOVQ kc+24(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

fwdK:
	MOVLQSX (DI), AX
	VMOVUPS (BX)(AX*4), Y8            // patch element p of 8 neighbouring outputs
	FWDMAC((R8), Y0)
	FWDMAC((R8)(R12*1), Y1)
	FWDMAC((R8)(R12*2), Y2)
	FWDMAC((R8)(R13*1), Y3)
	FWDMAC((R9), Y4)
	FWDMAC((R9)(R12*1), Y5)
	FWDMAC((R9)(R12*2), Y6)
	FWDMAC((R9)(R13*1), Y7)
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ $4, DI
	DECQ CX
	JNZ  fwdK

	VMOVUPS Y0, 0(SP)
	VMOVUPS Y1, 32(SP)
	VMOVUPS Y2, 64(SP)
	VMOVUPS Y3, 96(SP)
	VMOVUPS Y4, 128(SP)
	VMOVUPS Y5, 160(SP)
	VMOVUPS Y6, 192(SP)
	VMOVUPS Y7, 224(SP)
	LEAQ 0(SP), R8
	MOVQ R10, DX
	MOVQ bias+72(FP), DI
	MOVQ flags+96(FP), AX
	MOVQ $8, CX

fwdChan:
	VMOVUPS (R8), Y8                  // the block's sum
	VMOVAPS Y13, Y9
	TESTQ $1, AX                      // convFirstBlock: the cell is +0
	JNZ  fwdFold
	VMOVUPS (DX), Y9
fwdFold:
	VADDPS Y8, Y9, Y9                 // cell + sum, cell first
	TESTQ $2, AX                      // convLastBlock
	JZ   fwdStore
	VBROADCASTSS (DI), Y10
	VADDPS Y9, Y10, Y9                // bias + cell, bias first
	TESTQ $4, AX                      // convReLU
	JZ   fwdStore
	VCMPPS $0x1E, Y13, Y9, Y10        // v > 0, ordered: NaN fails
	VANDPS Y10, Y9, Y9
fwdStore:
	VMOVUPS Y9, (DX)
	ADDQ R11, DX
	ADDQ $32, R8
	ADDQ $4, DI
	DECQ CX
	JNZ  fwdChan

	ADDQ $32, BX
	ADDQ $32, R10
	DECQ R15
	JNZ  fwdVec

	MOVQ xrow+8(FP), AX
	LEAQ (SI)(AX*4), SI
	MOVQ nv+88(FP), AX
	SHLQ $3, AX
	SUBQ yrow+64(FP), AX
	NEGQ AX                           // yrow - 8*nv
	LEAQ (R10)(AX*4), R10
	DECQ R14
	JNZ  fwdRow

	VZEROUPPER
	RET

// One channel of a convGradW8 step: acc += d[r][p] * patch lanes (Y8).
#define GWMAC(dmem, acc) \
	VBROADCASTSS dmem, Y9 \
	VMULPS       Y9, Y8, Y10 \ // patch*d, patch first
	VADDPS       acc, Y10, acc   // product + c, product first

// func convGradW8(x *float32, xstep, xrow int, idx *int32, d *float32, ldd int,
//	ct *float32, ldct int, rows, cols int)
//
// Lanes are eight patch elements of one position, fetched by a gather on
// the offset table; eight accumulators (one per output channel) live in
// registers across the sample's positions, which are walked in order.
TEXT ·convGradW8(SB), NOSPLIT, $0-80
	MOVQ idx+24(FP), AX
	VMOVDQU (AX), Y14                 // eight patch offsets
	MOVQ d+32(FP), R8                 // d rows 0..3 at p
	MOVQ ldd+40(FP), R12
	SHLQ $2, R12
	LEAQ (R12)(R12*2), R13
	LEAQ (R8)(R12*4), R9              // d rows 4..7 at p
	MOVQ xstep+8(FP), R10
	SHLQ $2, R10
	MOVQ xrow+16(FP), R11
	SHLQ $2, R11
	MOVQ ct+48(FP), DX
	MOVQ ldct+56(FP), DI
	SHLQ $2, DI
	LEAQ (DX)(DI*4), R15              // ct rows 4..7
	LEAQ (DI)(DI*2), AX               // 3*ldct
	VMOVUPS (DX), Y0
	VMOVUPS (DX)(DI*1), Y1
	VMOVUPS (DX)(DI*2), Y2
	VMOVUPS (DX)(AX*1), Y3
	VMOVUPS (R15), Y4
	VMOVUPS (R15)(DI*1), Y5
	VMOVUPS (R15)(DI*2), Y6
	VMOVUPS (R15)(AX*1), Y7
	MOVQ x+0(FP), SI
	MOVQ rows+64(FP), R14

gwRow:
	MOVQ SI, BX
	MOVQ cols+72(FP), CX

gwPos:
	VPCMPEQD Y13, Y13, Y13            // gather mask: every lane
	VXORPS Y8, Y8, Y8                 // no dependence on the last gather
	VGATHERDPS Y13, (BX)(Y14*4), Y8
	GWMAC((R8), Y0)
	GWMAC((R8)(R12*1), Y1)
	GWMAC((R8)(R12*2), Y2)
	GWMAC((R8)(R13*1), Y3)
	GWMAC((R9), Y4)
	GWMAC((R9)(R12*1), Y5)
	GWMAC((R9)(R12*2), Y6)
	GWMAC((R9)(R13*1), Y7)
	ADDQ $4, R8
	ADDQ $4, R9
	ADDQ R10, BX
	DECQ CX
	JNZ  gwPos

	ADDQ R11, SI
	DECQ R14
	JNZ  gwRow

	VMOVUPS Y0, (DX)
	VMOVUPS Y1, (DX)(DI*1)
	VMOVUPS Y2, (DX)(DI*2)
	VMOVUPS Y3, (DX)(AX*1)
	VMOVUPS Y4, (R15)
	VMOVUPS Y5, (R15)(DI*1)
	VMOVUPS Y6, (R15)(DI*2)
	VMOVUPS Y7, (R15)(AX*1)
	VZEROUPPER
	RET

// One tap of a convGradX8 step: acc += dy lanes (Y8) * wt[oc][tap].
#define GXMAC(wmem, acc) \
	VBROADCASTSS wmem, Y9 \
	VMULPS       Y8, Y9, Y10 \ // w*dy, w first
	VADDPS       Y10, acc, acc

// One tap's read-modify-write: dst[off + lanes] += 0 + acc.
#define GXADD(offmem, acc) \
	MOVLQSX offmem, AX \
	VADDPS  acc, Y13, Y8 \ // the patch-row value: +0 cell + sum
	VMOVUPS (R10)(AX*4), Y9 \
	VADDPS  Y8, Y9, Y9 \ // dst + value, dst first
	VMOVUPS Y9, (R10)(AX*4)

// func convGradX8(d *float32, ldd, outC int, wt *float32, ldwt int, doff *int32, ntiles int,
//	dst *float32, nv int)
//
// For each group of 8 output columns and each tile of 8 taps: eight
// accumulators (one per tap, lanes across ox) sum outC products from +0, oc
// ascending; each is then added to the bordered gradient row it belongs to,
// taps in table order.
TEXT ·convGradX8(SB), NOSPLIT, $0-72
	MOVQ d+0(FP), SI                  // dy at (channel 0, row, column group)
	MOVQ ldd+8(FP), R12
	SHLQ $2, R12
	MOVQ ldwt+32(FP), R13
	SHLQ $2, R13
	MOVQ dst+56(FP), R10
	MOVQ nv+64(FP), R15
	VXORPS Y13, Y13, Y13              // +0

gxVec:
	MOVQ wt+24(FP), R8                // wt at (channel 0, tile)
	MOVQ doff+40(FP), DI
	MOVQ ntiles+48(FP), R14

gxTile:
	MOVQ SI, BX
	MOVQ R8, R9
	MOVQ outC+16(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

gxChan:
	VMOVUPS (BX), Y8                  // dy of 8 neighbouring positions
	GXMAC(0(R9), Y0)
	GXMAC(4(R9), Y1)
	GXMAC(8(R9), Y2)
	GXMAC(12(R9), Y3)
	GXMAC(16(R9), Y4)
	GXMAC(20(R9), Y5)
	GXMAC(24(R9), Y6)
	GXMAC(28(R9), Y7)
	ADDQ R12, BX
	ADDQ R13, R9
	DECQ CX
	JNZ  gxChan

	GXADD(0(DI), Y0)
	GXADD(4(DI), Y1)
	GXADD(8(DI), Y2)
	GXADD(12(DI), Y3)
	GXADD(16(DI), Y4)
	GXADD(20(DI), Y5)
	GXADD(24(DI), Y6)
	GXADD(28(DI), Y7)
	ADDQ $32, R8
	ADDQ $32, DI
	DECQ R14
	JNZ  gxTile

	ADDQ $32, SI
	ADDQ $32, R10
	DECQ R15
	JNZ  gxVec

	VZEROUPPER
	RET
