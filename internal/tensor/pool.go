package tensor

import (
	"fmt"
	"math"
)

// 2×2 max pooling with stride 2, over every H×W plane of a tensor at once.
// Output o of a plane with ow = W/2 output columns pools the window whose
// top-left input is at (2·(o/ow), 2·(o%ow)); its four cells are taken in
// the order (r0,x) (r0,x+1) (r1,x) (r1,x+1), and a cell replaces the
// running maximum only when it is greater — so a NaN in the first cell, or
// the first of equal cells, wins, and a later NaN never does. The winner's
// position in that order, its slot 0–3, is what the backward pass routes
// by. Slots are stored as the float32 values 0, 1, 2, 3 so that their
// buffer comes from the same float32 arena as the activations.
//
// As in vec.go, each pass is defined by its *Ref loop; an AVX2 kernel takes
// the kernelLen prefix of the outputs when rows hold a multiple of four of
// them (every pooled plane in the models: 8 and 4 columns), and the
// reference loop the rest. The kernels only select and mask values, so
// every path gives the same bits.

// poolWidth checks that out has in's shape pooled 2×2 — the same leading
// dimensions, H and W even and halved — and one slot per output, and
// returns out's row width ow. The kernels index through raw pointers, so
// the data lengths are checked too.
func poolWidth(in, out *Tensor, slot []float32) int {
	r := len(in.Shape)
	ok := r >= 2 && len(out.Shape) == r && len(out.Data) == out.Size() &&
		len(in.Data) == 4*len(out.Data) && len(slot) == len(out.Data)
	for i := 0; ok && i < r; i++ {
		want := in.Shape[i]
		if i >= r-2 {
			ok = want%2 == 0
			want /= 2
		}
		ok = ok && out.Shape[i] == want
	}
	if !ok {
		panic(fmt.Sprintf("tensor: maxpool of %v (%d elements) into %v (%d) with %d slots",
			in.Shape, len(in.Data), out.Shape, len(out.Data), len(slot)))
	}
	return out.Shape[r-1]
}

// poolKernelLen is kernelLen for a pass over n outputs in rows of ow: the
// kernels step through a row four outputs at a time.
func poolKernelLen(n, ow int) int {
	if ow%4 != 0 {
		return 0
	}
	return kernelLen(n)
}

// MaxPool2x2 pools every H×W plane of in ([…, H, W], H and W even) into
// out ([…, H/2, W/2]) and records each output's slot (see above).
func MaxPool2x2(in, out *Tensor, slot []float32) {
	ow := poolWidth(in, out, slot)
	n := poolKernelLen(len(out.Data), ow)
	if n > 0 {
		maxPoolAVX2(&in.Data[0], &out.Data[0], &slot[0], n, ow)
	}
	maxPoolRef(in.Data, out.Data, slot, ow, n)
}

// maxPoolRef pools outputs from, from+1, … to the end of out.
//
//go:noinline
func maxPoolRef(in, out, slot []float32, ow, from int) {
	w := 2 * ow
	for o := from; o < len(out); {
		// Output row o/ow reads input rows 2·(o/ow) and 2·(o/ow)+1.
		r0 := o/ow*2*w + 2*(o%ow)
		for end := (o/ow + 1) * ow; o < end; o, r0 = o+1, r0+2 {
			m, s := math.Float32bits(in[r0]), uint32(0)
			m, s = maxCell(m, s, in[r0+1], 1)
			m, s = maxCell(m, s, in[r0+w], 2)
			m, s = maxCell(m, s, in[r0+w+1], 3)
			out[o], slot[o] = math.Float32frombits(m), float32(s)
		}
	}
}

// maxCell folds cell v, slot j, into the running maximum m (as bits) and
// its slot s: v replaces them where v > m. Through the bits, as in
// reluMaskRef: which cell wins is a coin flip on real data, and a branch
// on it mispredicts.
func maxCell(m, s uint32, v float32, j uint32) (uint32, uint32) {
	var k uint32
	if v > math.Float32frombits(m) {
		k = ^uint32(0)
	}
	return m&^k | math.Float32bits(v)&k, s&^k | j&k
}

// MaxPool2x2Backward routes each output gradient g to the cell its slot
// names: every element of inGrad is written once, +0 + g at that cell and
// +0 at the window's other three. Those are the bits of clearing inGrad and
// adding g in — a −0 gradient lands as +0 — without the clearing pass.
// Slots are matched by their bits; one that is not the bits of 0, 1, 2 or
// 3 names no cell.
func MaxPool2x2Backward(outGrad *Tensor, slot []float32, inGrad *Tensor) {
	ow := poolWidth(inGrad, outGrad, slot)
	n := poolKernelLen(len(outGrad.Data), ow)
	if n > 0 {
		maxPoolBackAVX2(&inGrad.Data[0], &outGrad.Data[0], &slot[0], n, ow)
	}
	maxPoolBackRef(inGrad.Data, outGrad.Data, slot, ow, n)
}

// slotMask is all ones where the slot bits s are those of j, 0 elsewhere.
func slotMask(s uint32, j float32) uint32 {
	if s == math.Float32bits(j) {
		return ^uint32(0)
	}
	return 0
}

//go:noinline
func maxPoolBackRef(dx, g, slot []float32, ow, from int) {
	w := 2 * ow
	for o := from; o < len(g); {
		r0 := o/ow*2*w + 2*(o%ow)
		for end := (o/ow + 1) * ow; o < end; o, r0 = o+1, r0+2 {
			v, s := math.Float32bits(0+g[o]), math.Float32bits(slot[o])
			dx[r0] = math.Float32frombits(v & slotMask(s, 0))
			dx[r0+1] = math.Float32frombits(v & slotMask(s, 1))
			dx[r0+w] = math.Float32frombits(v & slotMask(s, 2))
			dx[r0+w+1] = math.Float32frombits(v & slotMask(s, 3))
		}
	}
}
