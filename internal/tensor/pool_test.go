package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"disttrain/internal/rng"
)

// parentMaxPool2x2 is the pooling this package defined before the slot
// form: one plane at a time, each argmax kept as an index into the input.
func parentMaxPool2x2(in, out []float32, idx []int32, h, w int) {
	o := 0
	for base := 0; base < len(in); base += h * w {
		for oy := 0; oy < h/2; oy++ {
			r0 := base + 2*oy*w
			r1 := r0 + w
			for x := 0; x < w; x += 2 {
				best, bi := in[r0+x], int32(r0+x)
				if v := in[r0+x+1]; v > best {
					best, bi = v, int32(r0+x+1)
				}
				if v := in[r1+x]; v > best {
					best, bi = v, int32(r1+x)
				}
				if v := in[r1+x+1]; v > best {
					best, bi = v, int32(r1+x+1)
				}
				out[o], idx[o] = best, bi
				o++
			}
		}
	}
}

// parentMaxPool2x2Backward is its backward pass: clear, then scatter-add.
func parentMaxPool2x2Backward(g []float32, idx []int32, dx []float32) {
	clear(dx)
	for i, v := range g {
		dx[idx[i]] += v
	}
}

// dirtyF32 returns n elements of a NaN no pass writes, standing in for a
// recycled arena buffer.
func dirtyF32(n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = math.Float32frombits(0x7fc0dead)
	}
	return s
}

// checkMaxPool pools x (shape [..., H, W]) and routes g back, into dirty
// buffers, through the exported passes, the reference loops and the parent
// definition, and requires the same bits from all three — the slots naming
// the parent's argmax.
func checkMaxPool(t testing.TB, x, g []float32, shape []int) {
	t.Helper()
	r := len(shape)
	h, w := shape[r-2], shape[r-1]
	ow, n := w/2, len(x)/4
	oshape := append(append([]int(nil), shape[:r-2]...), h/2, ow)
	what := fmt.Sprint(shape)

	out, slot := FromSlice(dirtyF32(n), oshape...), dirtyF32(n)
	MaxPool2x2(FromSlice(x, shape...), out, slot)
	refOut, refSlot := dirtyF32(n), dirtyF32(n)
	maxPoolRef(x, refOut, refSlot, ow, 0)
	sameBits(t, "MaxPool2x2 "+what, out.Data, refOut)
	sameBits(t, "MaxPool2x2 slots "+what, slot, refSlot)
	parentOut, idx := make([]float32, n), make([]int32, n)
	parentMaxPool2x2(x, parentOut, idx, h, w)
	sameBits(t, "MaxPool2x2 against the parent "+what, out.Data, parentOut)
	for o, s := range slot {
		r0 := o/ow*2*w + 2*(o%ow)
		cells := [4]int{r0, r0 + 1, r0 + w, r0 + w + 1}
		if s != float32(int(s)) || s < 0 || s > 3 || cells[int(s)] != int(idx[o]) {
			t.Fatalf("MaxPool2x2 %s: output %d has slot %v, the parent's argmax is input %d", what, o, s, idx[o])
		}
	}

	dx := FromSlice(dirtyF32(len(x)), shape...)
	MaxPool2x2Backward(FromSlice(g, oshape...), slot, dx)
	refDx := dirtyF32(len(x))
	maxPoolBackRef(refDx, g, slot, ow, 0)
	sameBits(t, "MaxPool2x2Backward "+what, dx.Data, refDx)
	parentDx := dirtyF32(len(x))
	parentMaxPool2x2Backward(g, idx, parentDx)
	sameBits(t, "MaxPool2x2Backward against the parent "+what, dx.Data, parentDx)

	// Slots that are not the bits of 0–3 — −0 among them — name no cell,
	// on every path.
	junk := append([]float32(nil), x[:n]...)
	for i := 0; i < n; i += 3 {
		junk[i] = float32(math.Copysign(float64(i%5), -1))
	}
	MaxPool2x2Backward(FromSlice(g, oshape...), junk, dx)
	maxPoolBackRef(refDx, g, junk, ow, 0)
	sameBits(t, "MaxPool2x2Backward, arbitrary slots "+what, dx.Data, refDx)
}

// saltWindows rewrites about a third of the 2×2 windows of x (rows of w)
// into the cases a maximum is most likely to get wrong: a NaN in one slot,
// a tie of two to four cells, a window of signed zeros.
func saltWindows(r *rng.RNG, x []float32, w int) {
	nan := func() float32 { return math.Float32frombits(vecSpecials[10+r.Intn(6)]) }
	for r0 := 0; r0 < len(x); r0 += 2 * w {
		for c := 0; c < w; c += 2 {
			cells := [4]int{r0 + c, r0 + c + 1, r0 + w + c, r0 + w + c + 1}
			switch r.Intn(9) {
			case 0, 1:
				x[cells[r.Intn(4)]] = nan()
			case 2, 3:
				v := x[cells[r.Intn(4)]]
				for _, j := range r.Perm(4)[:2+r.Intn(3)] {
					x[cells[j]] = v
				}
			case 4:
				for _, k := range cells {
					x[k] = math.Float32frombits(uint32(r.Intn(2)) << 31)
				}
			}
		}
	}
}

// TestMaxPool2x2: a worked example, then the exported passes against the
// reference loops and the parent definition for every plane count 1–17 and
// every even H×W up to 32×32, with and without the kernels.
func TestMaxPool2x2(t *testing.T) {
	in := FromSlice([]float32{
		1, 2, 5, 6,
		3, 4, 7, 8,
		-1, -2, 0, 0,
		-3, -4, 0, 9,
	}, 1, 4, 4)
	out, slot := New(1, 2, 2), make([]float32, 4)
	MaxPool2x2(in, out, slot)
	if want := []float32{4, 8, -1, 9}; !almostEqual(out.Data, want, 0) {
		t.Fatalf("maxpool = %v, want %v", out.Data, want)
	}
	if want := []float32{3, 3, 0, 3}; !almostEqual(slot, want, 0) {
		t.Fatalf("maxpool slots = %v, want %v", slot, want)
	}
	ig := New(1, 4, 4)
	MaxPool2x2Backward(FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2), slot, ig)
	if ig.At(0, 1, 1) != 1 || ig.At(0, 1, 3) != 2 || ig.At(0, 2, 0) != 3 || ig.At(0, 3, 3) != 4 {
		t.Fatalf("maxpool backward = %v", ig.Data)
	}
	var sum float32
	for _, v := range ig.Data {
		sum += v
	}
	if sum != 10 {
		t.Fatalf("gradient mass not conserved: %v", sum)
	}

	// Inputs are cut from one pool of vecInput values at a random offset,
	// then salted; a fifth of the gradients are −0.
	r := rng.New(31)
	pool, gpool := vecInput(r, 2*17*32*32, 0), vecInput(r, 17*16*16, 0)
	for i := 0; i < len(gpool); i += 5 {
		gpool[i] = float32(math.Copysign(0, -1))
	}
	sweep := func() {
		for p := 1; p <= 17; p++ {
			for h := 2; h <= 32; h += 2 {
				for w := 2; w <= 32; w += 2 {
					n := p * h * w
					x := append([]float32(nil), pool[r.Intn(len(pool)-n+1):][:n]...)
					saltWindows(r, x, w)
					g := gpool[r.Intn(len(gpool)-n/4+1):][:n/4]
					shape := []int{p, h, w}
					if p%2 == 0 {
						shape = []int{2, p / 2, h, w}
					}
					checkMaxPool(t, x, g, shape)
				}
			}
		}
	}
	sweep()
	withoutAVX2(sweep)
}

func TestMaxPool2x2RejectsBadShapes(t *testing.T) {
	for name, f := range map[string]func(){
		"odd width":    func() { MaxPool2x2(New(1, 4, 5), New(1, 2, 2), make([]float32, 4)) },
		"wrong output": func() { MaxPool2x2(New(2, 4, 4), New(1, 2, 2), make([]float32, 4)) },
		"short slots":  func() { MaxPool2x2(New(1, 4, 4), New(1, 2, 2), make([]float32, 3)) },
		"short data": func() {
			MaxPool2x2(&Tensor{Shape: []int{1, 4, 8}, Data: make([]float32, 16)}, New(1, 2, 4), make([]float32, 8))
		},
		"rank 1": func() { MaxPool2x2Backward(New(2), make([]float32, 2), New(4)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// FuzzMaxPool pools raw bit patterns — repeated to fill the planes, which
// makes ties common — over a fuzzed geometry.
func FuzzMaxPool(f *testing.F) {
	r := rng.New(32)
	for _, geo := range [][3]uint8{{0, 0, 0}, {2, 7, 7}, {15, 3, 1}, {16, 15, 15}, {5, 1, 11}} {
		raw := make([]byte, 0, 4*67)
		for _, x := range vecInput(r, 67, 0) {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(x))
		}
		f.Add(geo[0], geo[1], geo[2], raw)
	}
	f.Fuzz(func(t *testing.T, planes, h, w uint8, raw []byte) {
		p, hh, ww := 1+int(planes%17), 2*(1+int(h%16)), 2*(1+int(w%16))
		n, words := p*hh*ww, len(raw)/4
		at := func(i int) float32 {
			if words == 0 {
				return 0
			}
			return math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(i%words):]))
		}
		x, g := make([]float32, n), make([]float32, n/4)
		for i := range x {
			x[i] = at(i)
		}
		for i := range g {
			g[i] = at(n + i)
		}
		checkMaxPool(t, x, g, []int{p, hh, ww})
	})
}

// BenchmarkMaxPool times the forward and backward passes at the two pooled
// shapes of the mini conv nets at batch 16, on the kernels, on the
// reference loops (the path without AVX2) and on the parent definition.
// Bytes are the slot form's traffic: four inputs read, an output and a
// slot written forward; a gradient and a slot read, four cells written
// backward.
func BenchmarkMaxPool(b *testing.B) {
	for _, shape := range [][]int{{16, 8, 16, 16}, {16, 8, 8, 8}} {
		in := New(shape...)
		in.RandNormal(rng.New(33), 1)
		h, w := shape[2], shape[3]
		out, g := New(16, 8, h/2, w/2), New(16, 8, h/2, w/2)
		g.RandNormal(rng.New(34), 1)
		dx, slot, idx := New(shape...), make([]float32, out.Size()), make([]int32, out.Size())
		name := fmt.Sprintf("%dx%dx%dx%d", shape[0], shape[1], h, w)
		bench := func(pass string, run func()) {
			b.Run(name+"/"+pass, func(b *testing.B) {
				b.SetBytes(int64(24 * out.Size()))
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
		fwd := func() { MaxPool2x2(in, out, slot) }
		bwd := func() { MaxPool2x2Backward(g, slot, dx) }
		bench("fwd/avx2", fwd)
		bench("fwd/scalar", func() { withoutAVX2(fwd) })
		bench("fwd/parent", func() { parentMaxPool2x2(in.Data, out.Data, idx, h, w) })
		bench("bwd/avx2", bwd)
		bench("bwd/scalar", func() { withoutAVX2(bwd) })
		bench("bwd/parent", func() { parentMaxPool2x2Backward(g.Data, idx, dx.Data) })
	}
}
