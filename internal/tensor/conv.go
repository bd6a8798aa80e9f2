package tensor

import "fmt"

// convOut returns the output extent of a convolution along one axis.
func convOut(in, k, stride, pad int) int { return (in+2*pad-k)/stride + 1 }

// convInterior returns the range [lo, hi) of output columns whose whole
// kw-wide receptive field lies inside an input row of width w; only the
// columns left and right of it need a per-element bounds test. The range is
// empty when the kernel is wider than the padded row allows.
func convInterior(w, kw, stride, pad, outW int) (lo, hi int) {
	lo = min((pad+stride-1)/stride, outW)
	hi = lo
	if last := w - kw + pad; last >= 0 {
		hi = max(lo, min(last/stride+1, outW))
	}
	return lo, hi
}

// Im2colRows lowers a (C×H×W) input into patch rows: row (oy·outW+ox) of
// dst holds output position (oy,ox)'s receptive field, laid out [c·kh·kw],
// so that a convolution is a GEMM against the (B·outH·outW) × (c·kh·kw)
// matrix of every sample's block. dst must have outH·outW·c·kh·kw elements;
// padding positions contribute zeros. The layers no longer lower (Conv
// computes in image space): this is the definition Conv's tests hold it to,
// and what the benchmark ladder's tensor.im2col_gbps rung times.
//
// The loops run (oy, ch, ky, ox, kx): the input-row test and both base
// offsets are fixed before ox starts, and ox is split once per call into
// left border, interior and right border, so the interior moves a kw-run
// from one input row to one patch row with no per-element test.
func Im2colRows(in *Tensor, kh, kw, stride, pad int, dst []float32) {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	outH, outW := convOut(h, kh, stride, pad), convOut(w, kw, stride, pad)
	f := c * kh * kw
	if len(dst) != outH*outW*f {
		panic(fmt.Sprintf("tensor: im2colrows dst len %d, want %d", len(dst), outH*outW*f))
	}
	lo, hi := convInterior(w, kw, stride, pad, outW)
	for oy := 0; oy < outH; oy++ {
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				// The (ch,ky) kw-run of patch row (oy,ox) starts at off+ox·f.
				off := oy*outW*f + (ch*kh+ky)*kw
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					im2colEdge(dst, nil, off, f, kw, 0, outW, stride, pad)
					continue
				}
				src := in.Data[(ch*h+iy)*w : (ch*h+iy+1)*w]
				im2colEdge(dst, src, off, f, kw, 0, lo, stride, pad)
				if lo < hi {
					im2colRuns(dst[off+lo*f:], src[lo*stride-pad:], f, stride, kw, hi-lo)
				}
				im2colEdge(dst, src, off, f, kw, hi, outW, stride, pad)
			}
		}
	}
}

// im2colRuns copies n kw-runs, src[i·stride:] to dst[i·f:], all of them
// inside both slices. The 3-wide case (every conv in the models) is a
// fixed-size move rather than a call to memmove. Kept out of line: inlined
// into Im2colRows' loop nest its counters spill to the stack and the copy
// runs a third slower.
//
//go:noinline
func im2colRuns(dst, src []float32, f, stride, kw, n int) {
	for di, si := 0, 0; n > 0; n, di, si = n-1, di+f, si+stride {
		if kw == 3 {
			copy(dst[di:di+3], src[si:si+3])
		} else {
			copy(dst[di:di+kw], src[si:si+kw])
		}
	}
}

// im2colEdge fills one kw-run in each of patch rows [ox0, ox1) from the
// input row src, testing every column; columns outside src (all of them
// for a nil src, a padding row) become zero.
func im2colEdge(dst, src []float32, off, f, kw, ox0, ox1, stride, pad int) {
	for ox := ox0; ox < ox1; ox++ {
		run := dst[off+ox*f : off+ox*f+kw]
		for kx := range run {
			if ix := ox*stride - pad + kx; ix >= 0 && ix < len(src) {
				run[kx] = src[ix]
			} else {
				run[kx] = 0
			}
		}
	}
}

// MaxPool2x2 applies 2×2 max pooling with stride 2 to a (C×H×W) tensor and
// records the argmax index of each output cell into idx (same length as the
// output) so the backward pass can route gradients. H and W must be even.
func MaxPool2x2(in *Tensor, out *Tensor, idx []int32) {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	oh, ow := h/2, w/2
	if out.Shape[0] != c || out.Shape[1] != oh || out.Shape[2] != ow {
		panic(fmt.Sprintf("tensor: maxpool out shape %v, want [%d %d %d]", out.Shape, c, oh, ow))
	}
	if len(idx) != c*oh*ow {
		panic("tensor: maxpool idx length mismatch")
	}
	id, od := in.Data, out.Data
	o := 0
	for ch := 0; ch < c; ch++ {
		base := ch * h * w
		for oy := 0; oy < oh; oy++ {
			r0 := base + (2*oy)*w
			r1 := r0 + w
			for ox := 0; ox < ow; ox++ {
				x := 2 * ox
				best := id[r0+x]
				bi := int32(r0 + x)
				if v := id[r0+x+1]; v > best {
					best, bi = v, int32(r0+x+1)
				}
				if v := id[r1+x]; v > best {
					best, bi = v, int32(r1+x)
				}
				if v := id[r1+x+1]; v > best {
					best, bi = v, int32(r1+x+1)
				}
				od[o] = best
				idx[o] = bi
				o++
			}
		}
	}
}

// MaxPool2x2Backward scatters output gradients back to the argmax positions
// recorded by MaxPool2x2. inGrad is zeroed first.
func MaxPool2x2Backward(outGrad *Tensor, idx []int32, inGrad *Tensor) {
	inGrad.Zero()
	gd := inGrad.Data
	for i, g := range outGrad.Data {
		gd[idx[i]] += g
	}
}
