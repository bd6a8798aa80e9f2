package tensor

import (
	"fmt"
	"math"
	"testing"

	"disttrain/internal/rng"
)

// naiveIm2col is the textbook definition the patch-row kernels are checked
// against: a (C×H×W) input becomes a (C·kh·kw) × (outH·outW) matrix whose
// entry [(ch,ky,kx), (oy,ox)] is the input at (ch, oy·stride−pad+ky,
// ox·stride−pad+kx), or zero outside the image.
func naiveIm2col(in *Tensor, kh, kw, stride, pad int, out *Tensor) {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	outH, outW := convOut(h, kh, stride, pad), convOut(w, kw, stride, pad)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						var v float32
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							v = in.At(ch, iy, ix)
						}
						out.Set(v, (ch*kh+ky)*kw+kx, oy*outW+ox)
					}
				}
			}
		}
	}
}

// naiveCol2im is naiveIm2col's adjoint: every matrix entry is added to the
// input position it was read from. grad is zeroed first.
func naiveCol2im(cols *Tensor, c, h, w, kh, kw, stride, pad int, grad *Tensor) {
	outH, outW := convOut(h, kh, stride, pad), convOut(w, kw, stride, pad)
	clear(grad.Data)
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy, ix := oy*stride-pad+ky, ox*stride-pad+kx
						if iy >= 0 && iy < h && ix >= 0 && ix < w {
							grad.Set(grad.At(ch, iy, ix)+cols.At((ch*kh+ky)*kw+kx, oy*outW+ox), ch, iy, ix)
						}
					}
				}
			}
		}
	}
}

// parentIm2colRows is Im2colRows as it stood before the border/interior
// split (PR 14): a walk over patch rows with a bounds test per element. Kept
// verbatim as the bit-exact reference.
func parentIm2colRows(in *Tensor, kh, kw, stride, pad int, dst []float32) {
	c, h, w := in.Shape[0], in.Shape[1], in.Shape[2]
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	f := c * kh * kw
	id := in.Data
	r := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := dst[r*f : r*f+f]
			p := 0
			for ch := 0; ch < c; ch++ {
				base := ch * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						for kx := 0; kx < kw; kx++ {
							row[p] = 0
							p++
						}
						continue
					}
					rowBase := base + iy*w
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if ix < 0 || ix >= w {
							row[p] = 0
						} else {
							row[p] = id[rowBase+ix]
						}
						p++
					}
				}
			}
			r++
		}
	}
}

// parentCol2imRows is Col2imRows as it stood at PR 14, the reference for
// the accumulation order of every gradient element.
func parentCol2imRows(src []float32, c, h, w, kh, kw, stride, pad int, grad *Tensor) {
	outH := (h+2*pad-kh)/stride + 1
	outW := (w+2*pad-kw)/stride + 1
	f := c * kh * kw
	clear(grad.Data)
	gd := grad.Data
	r := 0
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			row := src[r*f : r*f+f]
			p := 0
			for ch := 0; ch < c; ch++ {
				base := ch * h * w
				for ky := 0; ky < kh; ky++ {
					iy := oy*stride - pad + ky
					if iy < 0 || iy >= h {
						p += kw
						continue
					}
					rowBase := base + iy*w
					for kx := 0; kx < kw; kx++ {
						ix := ox*stride - pad + kx
						if ix >= 0 && ix < w {
							gd[rowBase+ix] += row[p]
						}
						p++
					}
				}
			}
			r++
		}
	}
}

// TestIm2colRowsMatchesNaive: the patch-row layout is the exact transpose
// of the classic column layout, for strided, padded and multi-channel cases.
func TestIm2colRowsMatchesNaive(t *testing.T) {
	cases := []struct{ c, h, w, k, stride, pad int }{
		{1, 4, 4, 1, 1, 0},
		{3, 5, 5, 3, 1, 1},
		{2, 6, 8, 3, 2, 1},
		{4, 7, 7, 5, 2, 2},
	}
	r := rng.New(31)
	for _, tc := range cases {
		in := New(tc.c, tc.h, tc.w)
		in.RandNormal(r, 1)
		outH := (tc.h+2*tc.pad-tc.k)/tc.stride + 1
		outW := (tc.w+2*tc.pad-tc.k)/tc.stride + 1
		f := tc.c * tc.k * tc.k
		nCols := outH * outW

		cols := New(f, nCols)
		naiveIm2col(in, tc.k, tc.k, tc.stride, tc.pad, cols)
		rows := make([]float32, nCols*f)
		Im2colRows(in, tc.k, tc.k, tc.stride, tc.pad, rows)

		for p := 0; p < nCols; p++ {
			for j := 0; j < f; j++ {
				if got, want := rows[p*f+j], cols.Data[j*nCols+p]; got != want {
					t.Fatalf("case %+v: rows[%d,%d]=%v, cols[%d,%d]=%v", tc, p, j, got, j, p, want)
				}
			}
		}
	}
}

// TestCol2imRowsMatchesNaive: scattering the transposed layout accumulates
// the same input gradient as the classic path.
func TestCol2imRowsMatchesNaive(t *testing.T) {
	const c, h, w, k, stride, pad = 2, 6, 6, 3, 1, 1
	outH := (h+2*pad-k)/stride + 1
	outW := (w+2*pad-k)/stride + 1
	f := c * k * k
	nCols := outH * outW

	r := rng.New(33)
	cols := New(f, nCols)
	cols.RandNormal(r, 1)
	rows := make([]float32, nCols*f)
	for p := 0; p < nCols; p++ {
		for j := 0; j < f; j++ {
			rows[p*f+j] = cols.Data[j*nCols+p]
		}
	}

	want := New(c, h, w)
	naiveCol2im(cols, c, h, w, k, k, stride, pad, want)
	got := New(c, h, w)
	Col2imRows(rows, c, h, w, k, k, stride, pad, got)

	for i := range want.Data {
		d := got.Data[i] - want.Data[i]
		if d < -1e-5 || d > 1e-5 {
			t.Fatalf("grad[%d]: rows %v vs cols %v", i, got.Data[i], want.Data[i])
		}
	}
}

// Col2imRows scatters one sample's block of the patch-row matrix produced
// by Im2colRows back into an input gradient of shape (C×H×W), accumulating
// where receptive fields overlap. grad is zeroed first. src must have
// outH·outW·c·kh·kw elements.
//
// It left conv.go with the lowering (PR 23) and stays here as the lowered
// path's input-gradient walk, which Conv.GradX is held to. Same loop order
// and border/interior split as Im2colRows. A destination element (ch,iy,ix)
// still receives its terms in ascending (oy,ox) order — the rounding
// sequence of a walk over patch rows — because for a fixed destination and
// oy exactly one ky matches, and within it ox ascends with one kx each.
func Col2imRows(src []float32, c, h, w, kh, kw, stride, pad int, grad *Tensor) {
	outH, outW := convOut(h, kh, stride, pad), convOut(w, kw, stride, pad)
	f := c * kh * kw
	if len(src) != outH*outW*f {
		panic(fmt.Sprintf("tensor: col2imrows src len %d, want %d", len(src), outH*outW*f))
	}
	if grad.Shape[0] != c || grad.Shape[1] != h || grad.Shape[2] != w {
		panic(fmt.Sprintf("tensor: col2imrows grad shape %v, want [%d %d %d]", grad.Shape, c, h, w))
	}
	clear(grad.Data)
	lo, hi := convInterior(w, kw, stride, pad, outW)
	for oy := 0; oy < outH; oy++ {
		for ch := 0; ch < c; ch++ {
			for ky := 0; ky < kh; ky++ {
				iy := oy*stride - pad + ky
				if iy < 0 || iy >= h {
					continue
				}
				off := oy*outW*f + (ch*kh+ky)*kw
				dst := grad.Data[(ch*h+iy)*w : (ch*h+iy+1)*w]
				col2imEdge(dst, src, off, f, kw, 0, lo, stride, pad)
				if lo < hi {
					col2imRuns(dst[lo*stride-pad:], src[off+lo*f:], f, stride, kw, hi-lo)
				}
				col2imEdge(dst, src, off, f, kw, hi, outW, stride, pad)
			}
		}
	}
}

// col2imRuns adds n kw-runs, src[i·f:] into dst[i·stride:], all of them
// inside both slices; im2colRuns' counterpart, unrolled for 3-wide runs.
func col2imRuns(dst, src []float32, f, stride, kw, n int) {
	for di, si := 0, 0; n > 0; n, di, si = n-1, di+stride, si+f {
		if kw == 3 {
			d, s := dst[di:di+3], src[si:si+3]
			d[0] += s[0]
			d[1] += s[1]
			d[2] += s[2]
			continue
		}
		d := dst[di : di+kw]
		for kx, v := range src[si : si+kw] {
			d[kx] += v
		}
	}
}

// col2imEdge adds one kw-run from each of patch rows [ox0, ox1) into the
// gradient row dst, dropping the columns that fall outside it.
func col2imEdge(dst, src []float32, off, f, kw, ox0, ox1, stride, pad int) {
	for ox := ox0; ox < ox1; ox++ {
		for kx, v := range src[off+ox*f : off+ox*f+kw] {
			if ix := ox*stride - pad + kx; ix >= 0 && ix < len(dst) {
				dst[ix] += v
			}
		}
	}
}

// convPool hands out test vectors cut from one salted pool (sweepData:
// normals, −0, denormals, NaN, ±Inf) at a moving offset, so a sweep over
// tens of thousands of geometries does not spend its time drawing normals.
type convPool struct {
	data []float32
	off  int
}

func newConvPool(seed uint64) *convPool {
	// A prime length, so no image or patch width divides the period.
	const n = 4099
	return &convPool{data: sweepData(rng.New(seed), n, true), off: int(seed % n)}
}

func (p *convPool) take(n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = p.data[(p.off+i)%len(p.data)]
	}
	p.off = (p.off + n + 1) % len(p.data)
	return out
}

// checkConvRows runs both patch-row kernels and their PR 14 loops on one
// geometry and reports the first element whose bits differ. Geometries with
// no output position are skipped (false).
func checkConvRows(t *testing.T, p *convPool, c, h, w, kh, kw, stride, pad int) bool {
	t.Helper()
	outH, outW := convOut(h, kh, stride, pad), convOut(w, kw, stride, pad)
	if outH < 1 || outW < 1 {
		return false
	}
	in := FromSlice(p.take(c*h*w), c, h, w)
	n := outH * outW * c * kh * kw
	// Dirty destinations: every element must be written, not assumed zero.
	got, want := p.take(n), p.take(n)
	Im2colRows(in, kh, kw, stride, pad, got)
	parentIm2colRows(in, kh, kw, stride, pad, want)
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Errorf("im2colrows c=%d %dx%d k=%dx%d stride=%d pad=%d: element %d = %x, parent loop %x",
				c, h, w, kh, kw, stride, pad, i, math.Float32bits(got[i]), math.Float32bits(want[i]))
			return true
		}
	}
	src := p.take(n)
	gGot, gWant := FromSlice(p.take(c*h*w), c, h, w), New(c, h, w)
	Col2imRows(src, c, h, w, kh, kw, stride, pad, gGot)
	parentCol2imRows(src, c, h, w, kh, kw, stride, pad, gWant)
	for i := range gWant.Data {
		if math.Float32bits(gGot.Data[i]) != math.Float32bits(gWant.Data[i]) {
			t.Errorf("col2imrows c=%d %dx%d k=%dx%d stride=%d pad=%d: element %d = %x, parent loop %x",
				c, h, w, kh, kw, stride, pad, i, math.Float32bits(gGot.Data[i]), math.Float32bits(gWant.Data[i]))
			return true
		}
	}
	return true
}

// TestConvRowsBitIdenticalToParentLoops sweeps the border/interior split
// over every way it can degenerate — no left border (pad 0), no interior
// (kernel wider than the input, or than the padded input where integer
// division still yields an output column), strides that skip the right
// border — on non-square images from 1×1 to 16×16.
func TestConvRowsBitIdenticalToParentLoops(t *testing.T) {
	p := newConvPool(35)
	ran := 0
	for _, c := range []int{1, 3, 8} {
		for h := 1; h <= 16; h++ {
			for w := 1; w <= 16; w++ {
				if testing.Short() && (h+w)%3 != 0 {
					continue
				}
				for _, k := range []int{1, 2, 3, 5} {
					for stride := 1; stride <= 3; stride++ {
						for pad := 0; pad <= 2; pad++ {
							if checkConvRows(t, p, c, h, w, k, k, stride, pad) {
								ran++
							}
							if t.Failed() {
								return
							}
						}
					}
				}
			}
		}
	}
	if ran == 0 {
		t.Fatal("sweep ran no geometry")
	}
}

// FuzzConvRows drives the same comparison from a fuzzed geometry, with
// independent kernel height and width.
func FuzzConvRows(f *testing.F) {
	f.Add(uint8(8), uint8(16), uint8(16), uint8(3), uint8(3), uint8(1), uint8(1), uint64(1))
	f.Add(uint8(1), uint8(1), uint8(1), uint8(2), uint8(2), uint8(2), uint8(0), uint64(2))  // kernel wider than the padded input
	f.Add(uint8(3), uint8(5), uint8(2), uint8(1), uint8(5), uint8(3), uint8(2), uint64(3))  // no interior
	f.Add(uint8(2), uint8(7), uint8(13), uint8(5), uint8(2), uint8(2), uint8(0), uint64(4)) // no left border
	f.Fuzz(func(t *testing.T, c, h, w, kh, kw, stride, pad uint8, seed uint64) {
		checkConvRows(t, newConvPool(seed), 1+int(c%8), 1+int(h%16), 1+int(w%16),
			1+int(kh%5), 1+int(kw%5), 1+int(stride%3), int(pad%3))
	})
}
