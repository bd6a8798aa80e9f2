package tensor

import "fmt"

// Direct convolution: forward, weight gradient and input gradient of a
// batched 2-D convolution computed in image space, with no patch matrix.
//
// An im2col lowering copies every receptive field into a row of a
// (B·outH·outW) × (InC·K·K) matrix — nine copies of the image for a 3×3
// kernel — multiplies, and for the input gradient scatters a second matrix
// of that size back. Here the only copy is the input with its zero border
// (Conv.xp); patch element k = (ch, ky, kx) of output position (oy, ox) is
// xp[corner(oy, ox) + koff[k]], one table lookup, and the input gradient is
// accumulated in a bordered image of the same layout whose border is thrown
// away. Activations stay [B, C, H, W] on both sides, so nothing is
// transposed either.
//
// No bit moves against the lowered formulation. Each routine is specified
// by a scalar loop (conv*Ref) that performs, per output element, exactly the
// rounding sequence gemm.go documents for the GEMM the lowering called:
//
//   - forward (A·Bᵀ with the bias/ReLU epilogue): k ascending in blocks of
//     gemmBlockK, each block summed from +0 and folded into a +0 cell, then
//     + bias, then !(v > 0) → 0. A padding tap is a multiplication by the
//     border's zero, never a skipped term, so an Inf or NaN weight against
//     padding is NaN exactly where the GEMM made it one.
//   - weight gradient (Aᵀ·B): dw[oc][k] += dy[p][oc]·patch[p][k] straight
//     into a +0 cell, over output positions p = (sample, oy, ox) ascending.
//   - input gradient (A·B, then the col2im walk): every patch-row value is
//     0 + Σ dy[p][oc]·w[oc][k] over oc ascending in blocks of gemmBlockK,
//     and a destination receives its values in ascending (oy, ox) order.
//     Positions of one p go to distinct destinations, so walking p in order
//     is that order; what col2im dropped at the image edge lands in the
//     border instead.
//
// On amd64 with AVX2, stride 1 and at least 8 output columns, 8-lane
// kernels (convdirect_amd64.s) take the 8-channel groups and 8-column
// groups of that work and the scalar loops the rest; the kernels issue each
// lane's multiply and add separately, in the loops' order, with the loops'
// first source operand. Forward and the input gradient have lanes across
// ox — eight neighbouring outputs read eight neighbouring inputs — and the
// weight gradient, whose sum over positions is serial, has lanes across k
// through a gather on the offset table.

// Conv is one convolution geometry over a fixed batch size together with the
// scratch it needs: the bordered input copy Forward leaves for GradW, the
// offset tables, and (when the input gradient is wanted) the bordered
// gradient image. Square kernels only — every layer here has one. A Conv is
// not safe for concurrent use.
type Conv struct {
	B, InC, H, W         int
	OutC, K, Stride, Pad int
	OutH, OutW           int

	hp, wp, planeSz int // bordered image extents, and their product
	f, f8           int // patch length InC·K·K, and rounded up to the lane count

	// koff[k], k = (ch·K+ky)·K+kx, is where patch element k sits in a
	// bordered sample relative to the receptive field's corner. Entries
	// f…f8 are 0: lanes the weight-gradient kernel computes and nobody reads.
	koff  []int32
	xp    []float32 // bordered copy of the batch last given to Forward
	dwt   []float32 // weight-gradient accumulators [OutC][f8]
	arena *Arena    // where the float32 scratch came from

	// Input-gradient scratch, nil when NewConv was told it is not wanted.
	// The kernel walks the taps in the order (kx descending, ch, ky) — a
	// destination's terms of one output row then arrive ox ascending, and
	// overlapping read-modify-writes sit InC·K taps apart — with the weights
	// packed in that order (wt, rebuilt per call) and tap padding aimed at a
	// spare plane behind each sample's channels.
	dxp    []float32
	dxs    int     // floats per sample in dxp
	tapK   []int32 // tap t's patch element k
	tapOff []int32 // and koff[k]; padding: the spare plane
	wt     []float32
}

// NewConv sizes a convolution of b samples of inC×h×w into outC channels
// with a k×k kernel, drawing scratch from a (nil: plain allocation). needDx
// leaves out what only GradX uses when false.
func NewConv(a *Arena, b, inC, h, w, outC, k, stride, pad int, needDx bool) *Conv {
	c := &Conv{B: b, InC: inC, H: h, W: w, OutC: outC, K: k, Stride: stride, Pad: pad, arena: a}
	c.OutH, c.OutW = convOut(h, k, stride, pad), convOut(w, k, stride, pad)
	if b < 1 || inC < 1 || outC < 1 || k < 1 || stride < 1 || pad < 0 || c.OutH < 1 || c.OutW < 1 {
		panic(fmt.Sprintf("tensor: conv %d×%d×%d×%d → %d channels, k=%d stride=%d pad=%d has no output",
			b, inC, h, w, outC, k, stride, pad))
	}
	// Truncating division can leave an output position whose receptive field
	// overhangs the padded image (a kernel larger than it): more border.
	c.hp = max(h+2*pad, (c.OutH-1)*stride+k)
	c.wp = max(w+2*pad, (c.OutW-1)*stride+k)
	c.planeSz = c.hp * c.wp
	c.f = inC * k * k
	c.f8 = (c.f + 7) &^ 7
	c.koff = make([]int32, c.f8)
	for ch := 0; ch < inC; ch++ {
		for ky := 0; ky < k; ky++ {
			for kx := 0; kx < k; kx++ {
				c.koff[(ch*k+ky)*k+kx] = int32(ch*c.planeSz + ky*c.wp + kx)
			}
		}
	}
	// The border is zeroed here, once: Forward rewrites interiors only.
	c.xp = a.GetZeroed(b * inC * c.planeSz)
	c.dwt = a.Get(outC * c.f8)
	if !needDx {
		return c
	}
	c.dxs = inC * c.planeSz
	if c.f8 > c.f {
		c.dxs += c.planeSz
	}
	// Zeroed for the spare planes' sake: they are only ever added to, and
	// must not start out as whatever (denormals, NaNs) the arena held.
	c.dxp = a.GetZeroed(b * c.dxs)
	c.wt = a.GetZeroed(outC * c.f8)
	c.tapK = make([]int32, c.f)
	c.tapOff = make([]int32, c.f8)
	t := 0
	for kx := k - 1; kx >= 0; kx-- {
		for ch := 0; ch < inC; ch++ {
			for ky := 0; ky < k; ky++ {
				kk := (ch*k+ky)*k + kx
				c.tapK[t], c.tapOff[t] = int32(kk), c.koff[kk]
				t++
			}
		}
	}
	for ; t < c.f8; t++ {
		c.tapOff[t] = int32(inC * c.planeSz)
	}
	return c
}

// Release hands the scratch back to the arena it came from. The Conv must
// not be used afterwards.
func (c *Conv) Release() {
	c.arena.Put(c.xp)
	c.arena.Put(c.dwt)
	c.arena.Put(c.dxp)
	c.arena.Put(c.wt)
	c.xp, c.dwt, c.dxp, c.wt = nil, nil, nil, nil
}

// lanes reports how many 8-column groups of an output row the kernels take
// (0: the scalar loops do everything).
func (c *Conv) lanes() int {
	if !gemmVector() || c.Stride != 1 {
		return 0
	}
	return c.OutW / 8
}

// procs is how many goroutines Forward and GradX split the samples over:
// the GEMM fan-out rule applied to the multiply the lowering would have
// issued (B·outH·outW rows), at most one per sample. Samples own disjoint
// outputs and every element's arithmetic is the same wherever it runs, so
// the split changes no bit. As in gemm.go, callers test this before they
// build the closure the goroutines would share: it is heap-allocated, which
// the serial hot path must not pay.
func (c *Conv) procs() int {
	rows := c.B * c.OutH * c.OutW
	return min(gemmWidth(rows, 2*rows*c.f*c.OutC), c.B)
}

func (c *Conv) check(name string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("tensor: conv %s has %d elements, want %d", name, got, want))
	}
}

// Forward computes y = conv(x, w) + bias, clamped by ReLU when relu is set
// (anything not > 0, NaN included, becomes +0). x is [B, InC, H, W], w is
// [OutC, InC·K·K], y is [B, OutC, OutH, OutW] and is overwritten. The
// bordered copy of x it makes is what GradW reads.
func (c *Conv) Forward(x, w, bias []float32, relu bool, y []float32) {
	c.check("input", len(x), c.B*c.InC*c.H*c.W)
	c.check("weights", len(w), c.OutC*c.f)
	c.check("bias", len(bias), c.OutC)
	c.check("output", len(y), c.B*c.OutC*c.OutH*c.OutW)
	procs := c.procs()
	if procs == 1 {
		c.forward(0, c.B, x, w, bias, relu, y)
		return
	}
	gemmDispatch(c.B, procs, func(s0, s1 int) { c.forward(s0, s1, x, w, bias, relu, y) })
}

func (c *Conv) forward(s0, s1 int, x, w, bias []float32, relu bool, y []float32) {
	nCols := c.OutH * c.OutW
	nv := c.lanes()
	ocv := 0
	if nv > 0 {
		ocv = c.OutC &^ 7
	}
	for s := s0; s < s1; s++ {
		xp := c.border(s, x)
		ys := y[s*c.OutC*nCols : (s+1)*c.OutC*nCols]
		for oc := 0; oc < ocv; oc += 8 {
			for p0 := 0; p0 < c.f; p0 += gemmBlockK {
				kc := min(gemmBlockK, c.f-p0)
				flags := 0
				if p0 == 0 {
					flags |= convFirstBlock
				}
				if p0+kc == c.f {
					flags |= convLastBlock
					if relu {
						flags |= convReLU
					}
				}
				convFwd8(&xp[0], c.wp, &c.koff[p0], kc, &w[oc*c.f+p0], c.f,
					&ys[oc*nCols], nCols, c.OutW, &bias[oc], c.OutH, nv, flags)
			}
		}
		if nv*8 < c.OutW {
			convForwardRef(c, xp, w, bias, relu, ys, 0, ocv, nv*8, c.OutW)
		}
		if ocv < c.OutC {
			convForwardRef(c, xp, w, bias, relu, ys, ocv, c.OutC, 0, c.OutW)
		}
	}
}

// Flags of convFwd8: which k block of an output tile this call is.
const (
	convFirstBlock = 1 << iota // the cell starts at +0 instead of y
	convLastBlock              // add bias after the fold
	convReLU                   // and clamp
)

// border copies sample s of x into the interior of its bordered image and
// returns that image.
func (c *Conv) border(s int, x []float32) []float32 {
	xp := c.xp[s*c.InC*c.planeSz : (s+1)*c.InC*c.planeSz]
	src := x[s*c.InC*c.H*c.W : (s+1)*c.InC*c.H*c.W]
	for ch := 0; ch < c.InC; ch++ {
		for iy := 0; iy < c.H; iy++ {
			copy(xp[ch*c.planeSz+(iy+c.Pad)*c.wp+c.Pad:][:c.W], src[(ch*c.H+iy)*c.W:])
		}
	}
	return xp
}

// convForwardRef is the forward pass's definition, over output channels
// [oc0, oc1) and columns [ox0, ox1) of every row of one sample. Four
// channels share each patch load — four independent sums, each the single
// loop's — and the single loop takes what is left.
//
//go:noinline
func convForwardRef(c *Conv, xp, w, bias []float32, relu bool, ys []float32, oc0, oc1, ox0, ox1 int) {
	f, nCols := c.f, c.OutH*c.OutW
	koff := c.koff[:f]
	for oy := 0; oy < c.OutH; oy++ {
		for ox := ox0; ox < ox1; ox++ {
			patch := xp[(oy*c.wp+ox)*c.Stride:]
			out := ys[oy*c.OutW+ox:]
			oc := oc0
			for ; oc+3 < oc1; oc += 4 {
				w0, w1 := w[oc*f:][:f], w[(oc+1)*f:][:f]
				w2, w3 := w[(oc+2)*f:][:f], w[(oc+3)*f:][:f]
				var c0, c1, c2, c3 float32
				for p0 := 0; p0 < f; p0 += gemmBlockK {
					var s0, s1, s2, s3 float32
					for p := p0; p < min(p0+gemmBlockK, f); p++ {
						xv := patch[koff[p]]
						s0 += xv * w0[p]
						s1 += xv * w1[p]
						s2 += xv * w2[p]
						s3 += xv * w3[p]
					}
					c0 += s0
					c1 += s1
					c2 += s2
					c3 += s3
				}
				out[oc*nCols] = convEpilogue(c0, bias[oc], relu)
				out[(oc+1)*nCols] = convEpilogue(c1, bias[oc+1], relu)
				out[(oc+2)*nCols] = convEpilogue(c2, bias[oc+2], relu)
				out[(oc+3)*nCols] = convEpilogue(c3, bias[oc+3], relu)
			}
			for ; oc < oc1; oc++ {
				wr := w[oc*f:][:f]
				var cell float32
				for p0 := 0; p0 < f; p0 += gemmBlockK {
					var s float32
					for p := p0; p < min(p0+gemmBlockK, f); p++ {
						s += patch[koff[p]] * wr[p]
					}
					cell += s
				}
				out[oc*nCols] = convEpilogue(cell, bias[oc], relu)
			}
		}
	}
}

func convEpilogue(cell, bias float32, relu bool) float32 {
	v := cell + bias
	if relu && !(v > 0) {
		v = 0
	}
	return v
}

// GradW computes the weight gradient dw[oc][k] = Σ_p dy[p][oc]·patch[p][k]
// of the batch last given to Forward. dy is [B, OutC, OutH, OutW]; dw is
// [OutC, InC·K·K] and is overwritten. Serial: every element sums over all
// samples in order.
func (c *Conv) GradW(dy, dw []float32) {
	nCols := c.OutH * c.OutW
	c.check("output gradient", len(dy), c.B*c.OutC*nCols)
	c.check("weight gradient", len(dw), c.OutC*c.f)
	ocv := 0
	if gemmVector() {
		ocv = c.OutC &^ 7
	}
	clear(c.dwt[:ocv*c.f8])
	clear(dw[ocv*c.f:])
	for s := 0; s < c.B; s++ {
		xp := c.xp[s*c.InC*c.planeSz : (s+1)*c.InC*c.planeSz]
		ds := dy[s*c.OutC*nCols : (s+1)*c.OutC*nCols]
		for oc := 0; oc < ocv; oc += 8 {
			for k0 := 0; k0 < c.f8; k0 += 8 {
				convGradW8(&xp[0], c.Stride, c.Stride*c.wp, &c.koff[k0], &ds[oc*nCols], nCols,
					&c.dwt[oc*c.f8+k0], c.f8, c.OutH, c.OutW)
			}
		}
		if ocv < c.OutC {
			convGradWRef(c, xp, ds, dw, ocv, c.OutC)
		}
	}
	for oc := 0; oc < ocv; oc++ {
		copy(dw[oc*c.f:(oc+1)*c.f], c.dwt[oc*c.f8:])
	}
}

// convGradWRef is the weight gradient's definition: one sample's terms
// added into rows [oc0, oc1) of dw. Four rows share each patch load, as in
// convForwardRef.
//
//go:noinline
func convGradWRef(c *Conv, xp, ds, dw []float32, oc0, oc1 int) {
	f, nCols := c.f, c.OutH*c.OutW
	koff := c.koff[:f]
	for oy := 0; oy < c.OutH; oy++ {
		for ox := 0; ox < c.OutW; ox++ {
			patch := xp[(oy*c.wp+ox)*c.Stride:]
			d := ds[oy*c.OutW+ox:]
			oc := oc0
			for ; oc+3 < oc1; oc += 4 {
				d0, d1, d2, d3 := d[oc*nCols], d[(oc+1)*nCols], d[(oc+2)*nCols], d[(oc+3)*nCols]
				r0, r1 := dw[oc*f:][:f], dw[(oc+1)*f:][:f]
				r2, r3 := dw[(oc+2)*f:][:f], dw[(oc+3)*f:][:f]
				for k, off := range koff {
					xv := patch[off]
					r0[k] += d0 * xv
					r1[k] += d1 * xv
					r2[k] += d2 * xv
					r3[k] += d3 * xv
				}
			}
			for ; oc < oc1; oc++ {
				dv, row := d[oc*nCols], dw[oc*f:][:f]
				for k, off := range koff {
					row[k] += dv * patch[off]
				}
			}
		}
	}
}

// GradX computes the input gradient dx = convᵀ(dy, w). dy is
// [B, OutC, OutH, OutW], w is [OutC, InC·K·K]; dx is [B, InC, H, W] and is
// overwritten. The Conv must have been made with needDx.
func (c *Conv) GradX(dy, w, dx []float32) {
	c.check("output gradient", len(dy), c.B*c.OutC*c.OutH*c.OutW)
	c.check("weights", len(w), c.OutC*c.f)
	c.check("input gradient", len(dx), c.B*c.InC*c.H*c.W)
	if c.dxp == nil {
		panic("tensor: conv made without input-gradient scratch")
	}
	if c.gradXLanes() > 0 {
		for oc := 0; oc < c.OutC; oc++ {
			wr, tr := w[oc*c.f:(oc+1)*c.f], c.wt[oc*c.f8:]
			for t, k := range c.tapK {
				tr[t] = wr[k]
			}
		}
	}
	procs := c.procs()
	if procs == 1 {
		c.gradX(0, c.B, dy, w, dx)
		return
	}
	gemmDispatch(c.B, procs, func(s0, s1 int) { c.gradX(s0, s1, dy, w, dx) })
}

// gradXLanes is lanes for the input-gradient kernel, which keeps a patch-row
// value's whole sum over oc in one register and so handles a single k block.
func (c *Conv) gradXLanes() int {
	if c.OutC > gemmBlockK {
		return 0
	}
	return c.lanes()
}

func (c *Conv) gradX(s0, s1 int, dy, w, dx []float32) {
	nCols := c.OutH * c.OutW
	nv := c.gradXLanes()
	for s := s0; s < s1; s++ {
		dxp := c.dxp[s*c.dxs : (s+1)*c.dxs]
		clear(dxp[:c.InC*c.planeSz])
		ds := dy[s*c.OutC*nCols : (s+1)*c.OutC*nCols]
		for oy := 0; oy < c.OutH; oy++ {
			if nv > 0 {
				convGradX8(&ds[oy*c.OutW], nCols, c.OutC, &c.wt[0], c.f8, &c.tapOff[0], c.f8/8,
					&dxp[oy*c.wp], nv)
			}
			if nv*8 < c.OutW {
				convGradXRef(c, ds, w, dxp, oy, nv*8, c.OutW)
			}
		}
		dst := dx[s*c.InC*c.H*c.W : (s+1)*c.InC*c.H*c.W]
		for ch := 0; ch < c.InC; ch++ {
			for iy := 0; iy < c.H; iy++ {
				copy(dst[(ch*c.H+iy)*c.W:][:c.W], dxp[ch*c.planeSz+(iy+c.Pad)*c.wp+c.Pad:])
			}
		}
	}
}

// convGradXRef is the input gradient's definition: the terms of output
// positions (oy, [ox0, ox1)) of one sample, added into its bordered
// gradient image. Four patch elements share each dy load, as in
// convForwardRef.
//
//go:noinline
func convGradXRef(c *Conv, ds, w, dxp []float32, oy, ox0, ox1 int) {
	f, nCols, outC := c.f, c.OutH*c.OutW, c.OutC
	koff := c.koff[:f]
	for ox := ox0; ox < ox1; ox++ {
		d := ds[oy*c.OutW+ox:]
		dst := dxp[(oy*c.wp+ox)*c.Stride:]
		k := 0
		for ; k+3 < f; k += 4 {
			var c0, c1, c2, c3 float32
			for b0 := 0; b0 < outC; b0 += gemmBlockK {
				var s0, s1, s2, s3 float32
				for oc := b0; oc < min(b0+gemmBlockK, outC); oc++ {
					dv, wr := d[oc*nCols], w[oc*f+k:][:4]
					s0 += dv * wr[0]
					s1 += dv * wr[1]
					s2 += dv * wr[2]
					s3 += dv * wr[3]
				}
				c0 += s0
				c1 += s1
				c2 += s2
				c3 += s3
			}
			dst[koff[k]] += c0
			dst[koff[k+1]] += c1
			dst[koff[k+2]] += c2
			dst[koff[k+3]] += c3
		}
		for ; k < f; k++ {
			var cell float32
			for b0 := 0; b0 < outC; b0 += gemmBlockK {
				var s float32
				for oc := b0; oc < min(b0+gemmBlockK, outC); oc++ {
					s += d[oc*nCols] * w[oc*f+k]
				}
				cell += s
			}
			dst[koff[k]] += cell
		}
	}
}
