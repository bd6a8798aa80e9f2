package tensor

import (
	"encoding/binary"
	"math"
	"testing"

	"disttrain/internal/rng"
)

// vecSpecials are the values a kernel is most likely to get wrong: signed
// zeros, denormals, the ends of the finite range, infinities, and quiet and
// signalling NaNs of several payloads and both signs.
var vecSpecials = []uint32{
	0x00000000, 0x80000000, // ±0
	0x00000001, 0x80000001, 0x007fffff, 0x807fffff, // denormals
	0x7f7fffff, 0xff7fffff, // ±MaxFloat32
	0x7f800000, 0xff800000, // ±Inf
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xffabcdef, // quiet NaNs
	0x7f800001, 0xff923456, // signalling NaNs
	0x3f000000, 0xbf000000, 0x42fe0000, 0xc2ff0000, // ±0.5, 127, −127.5
}

// vecInput draws n values, a quarter of them specials and the rest normals
// of a scale that varies by element, into a slice that starts off elements
// past its allocation's base (the kernels use unaligned loads).
func vecInput(r *rng.RNG, n, off int) []float32 {
	x := make([]float32, n+off)[off:]
	for i := range x {
		if r.Intn(4) == 0 {
			x[i] = math.Float32frombits(vecSpecials[r.Intn(len(vecSpecials))])
		} else {
			x[i] = float32(r.NormFloat64() * math.Pow(10, float64(r.Intn(7)-3)))
		}
	}
	return x
}

// cloneAt copies x into a fresh slice with the same element offset.
func cloneAt(x []float32, off int) []float32 {
	c := make([]float32, len(x)+off)[off:]
	copy(c, x)
	return c
}

func sameBits(t testing.TB, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range got {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s (n=%d): element %d = %08x, reference %08x", what, len(got), i, g, w)
		}
	}
}

func sameCodes(t testing.TB, what string, got, want []int8) {
	t.Helper()
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s (n=%d): code %d = %d, reference %d", what, len(got), i, got[i], want[i])
		}
	}
}

// checkVecKernels runs all six exported passes on (p, g, v) with the
// scalars s and compares every output bit with the reference loops. off is
// the element offset fresh buffers are given.
func checkVecKernels(t testing.TB, p, g, v []float32, s [4]float32, off int) {
	t.Helper()
	n := len(p)
	g0 := cloneAt(g, off)

	// Axpy: distinct operands, then x == y.
	y1, y2 := cloneAt(p, off), cloneAt(p, off)
	AxpyF32(s[0], g, y1)
	axpyRef(s[0], g, y2)
	sameBits(t, "AxpyF32", y1, y2)
	a1, a2 := cloneAt(g, off), cloneAt(g, off)
	AxpyF32(s[0], a1, a1)
	axpyRef(s[0], a2, a2)
	sameBits(t, "AxpyF32 aliased", a1, a2)

	// SGD step: parameters and velocity both, gradient untouched.
	p1, v1 := cloneAt(p, off), cloneAt(v, off)
	p2, v2 := cloneAt(p, off), cloneAt(v, off)
	SGDStepF32(p1, g, v1, s[0], s[1], s[2], s[3])
	sgdStepRef(p2, g, v2, s[0], s[1], s[2], s[3])
	sameBits(t, "SGDStepF32 params", p1, p2)
	sameBits(t, "SGDStepF32 velocity", v1, v2)
	sameBits(t, "SGDStepF32 gradient", g, g0)

	// ReLU mask: into a fresh buffer, then over the gradient itself.
	m1, m2 := cloneAt(p, off), cloneAt(p, off)
	ReLUMaskF32(m1, g, v)
	reluMaskRef(m2, g, v)
	sameBits(t, "ReLUMaskF32", m1, m2)
	m1 = cloneAt(g, off)
	ReLUMaskF32(m1, m1, v)
	sameBits(t, "ReLUMaskF32 in place", m1, m2)

	// Max-abs.
	for _, x := range [][]float32{p, g, v} {
		if got, want := MaxAbsF32(x), maxAbsRef(0, x); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("MaxAbsF32 (n=%d): %08x, reference %08x", n, math.Float32bits(got), math.Float32bits(want))
		}
	}

	// Quantize, with the codec's own inverse/scale pair and with arbitrary
	// ones, with and without the round trip; then dequantize the codes.
	m := maxAbsRef(0, g)
	for _, is := range [][2]float32{{127 / m, m / 127}, {s[0], s[1]}, {s[2], s[3]}} {
		for _, back := range []bool{false, true} {
			x1, x2 := cloneAt(g, off), cloneAt(g, off)
			q1, q2 := make([]int8, n+off)[off:], make([]int8, n+off)[off:]
			Quant8F32(q1, x1, is[0], is[1], back)
			quant8Ref(q2, x2, is[0], is[1], back)
			sameCodes(t, "Quant8F32", q1, q2)
			sameBits(t, "Quant8F32 values", x1, x2)
			if !back {
				sameBits(t, "Quant8F32 input", x1, g0)
			}
			d1, d2 := cloneAt(p, off), cloneAt(p, off)
			Dequant8F32(d1, q1, is[1])
			dequant8Ref(d2, q2, is[1])
			sameBits(t, "Dequant8F32", d1, d2)
		}
	}
}

// runVecKernelChecks compares kernels and references for every length
// through four kernel blocks at every element offset, and, when long is
// set, for a few model-sized vectors with and without a tail.
func runVecKernelChecks(t *testing.T, long bool) {
	r := rng.New(22)
	check := func(n, off int) {
		p, g, v := vecInput(r, n, off), vecInput(r, n, off), vecInput(r, n, off)
		// Training-like scalars, then anything at all.
		checkVecKernels(t, p, g, v, [4]float32{0.25, 0.1, 0.9, 1e-4}, off)
		checkVecKernels(t, p, g, v, [4]float32(vecInput(r, 4, 0)), off)
	}
	for n := 0; n <= 130; n++ {
		for off := 0; off < 8; off++ {
			check(n, off)
		}
	}
	if long {
		check(1<<20-1, 0)
		check(1<<20, 3)
		check(1<<20+33, 0)
	}
}

// TestVecKernelsMatchReference: the exported passes — AVX2 kernel on the
// prefix, reference loop on the tail — agree with the reference loops bit
// for bit, NaN payloads included, for every length and alignment.
func TestVecKernelsMatchReference(t *testing.T) {
	if !hasAVX2 {
		t.Log("no AVX2: the exported passes are the reference loops")
	}
	runVecKernelChecks(t, true)
}

// withoutAVX2 runs f with the kernels switched off, as on a pre-AVX2 or
// non-amd64 host.
func withoutAVX2(f func()) {
	old := hasAVX2
	hasAVX2 = false
	defer func() { hasAVX2 = old }()
	f()
}

func TestVecKernelsReferencePath(t *testing.T) {
	withoutAVX2(func() { runVecKernelChecks(t, false) })
}

func TestMaxAbsSkipsNaN(t *testing.T) {
	nan := float32(math.NaN())
	for _, n := range []int{1, 31, 32, 33, 64, 100} {
		for _, where := range []string{"first", "last", "alone"} {
			x := make([]float32, n)
			for i := range x {
				x[i] = float32(i%7) - 3.5
			}
			switch where {
			case "first":
				x[0] = nan
			case "last":
				x[n-1] = nan
			default:
				for i := range x {
					x[i] = nan
				}
			}
			var want float32
			for _, v := range x {
				if !math.IsNaN(float64(v)) {
					want = max(want, float32(math.Abs(float64(v))))
				}
			}
			if got := MaxAbsF32(x); got != want {
				t.Errorf("n=%d NaN %s: max-abs %v, want %v", n, where, got, want)
			}
		}
	}
}

// TestVecKernelsOverlap pins the aliasing contract: with operands that
// overlap partly, the scalar loop reads what it wrote an element earlier,
// and the exported passes must give exactly its result.
func TestVecKernelsOverlap(t *testing.T) {
	r := rng.New(23)
	const n = 100
	for _, shift := range []int{1, 7, 32, 99} {
		base := vecInput(r, n+shift, 0)
		for _, fwd := range []bool{true, false} {
			b1, b2 := cloneAt(base, 0), cloneAt(base, 0)
			lo, hi := 0, shift
			if !fwd {
				lo, hi = shift, 0
			}
			AxpyF32(0.5, b1[lo:lo+n], b1[hi:hi+n])
			axpyRef(0.5, b2[lo:lo+n], b2[hi:hi+n])
			sameBits(t, "AxpyF32 overlapping", b1, b2)

			g := vecInput(r, n, 0)
			b1, b2 = cloneAt(base, 0), cloneAt(base, 0)
			SGDStepF32(b1[lo:lo+n], g, b1[hi:hi+n], 0.5, 0.1, 0.9, 1e-4)
			sgdStepRef(b2[lo:lo+n], g, b2[hi:hi+n], 0.5, 0.1, 0.9, 1e-4)
			sameBits(t, "SGDStepF32 overlapping", b1, b2)
		}
	}
	// p == v exactly: the scalar loop's p update reads the velocity it just
	// stored.
	b1 := vecInput(r, n, 0)
	b2, g := cloneAt(b1, 0), vecInput(r, n, 0)
	SGDStepF32(b1, g, b1, 1, 0.1, 0.9, 0)
	sgdStepRef(b2, g, b2, 1, 0.1, 0.9, 0)
	sameBits(t, "SGDStepF32 p==v", b1, b2)
}

func TestVecKernelsEmptyAndMismatched(t *testing.T) {
	// Empty operands never reach a kernel's &x[0].
	AxpyF32(1, nil, nil)
	SGDStepF32(nil, nil, nil, 1, 1, 1, 1)
	Quant8F32(nil, nil, 1, 1, true)
	Dequant8F32(nil, nil, 1)
	if m := MaxAbsF32(nil); m != 0 {
		t.Errorf("MaxAbsF32(nil) = %v", m)
	}
	a, b := make([]float32, 64), make([]float32, 32)
	for name, f := range map[string]func(){
		"AxpyF32":      func() { AxpyF32(1, a, b) },
		"SGDStepF32 g": func() { SGDStepF32(a, b, a, 1, 1, 1, 1) },
		"SGDStepF32 v": func() { SGDStepF32(a, a, b, 1, 1, 1, 1) },
		"Quant8F32":    func() { Quant8F32(make([]int8, 32), a, 1, 1, false) },
		"Dequant8F32":  func() { Dequant8F32(a, make([]int8, 32), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on a length mismatch", name)
				}
			}()
			f()
		}()
	}
}

// FuzzVecKernels feeds raw bit patterns — three equal-length float32
// vectors and four scalars — through the same comparison.
func FuzzVecKernels(f *testing.F) {
	r := rng.New(24)
	for _, n := range []int{0, 1, 31, 32, 33, 64, 97, 130} {
		raw := make([]byte, 0, 12*n)
		for _, x := range vecInput(r, 3*n, 0) {
			raw = binary.LittleEndian.AppendUint32(raw, math.Float32bits(x))
		}
		sc := vecInput(r, 4, 0)
		f.Add(raw, uint8(n), sc[0], sc[1], sc[2], sc[3])
		f.Add(raw, uint8(n), float32(0.25), float32(0.1), float32(0.9), float32(1e-4))
	}
	f.Fuzz(func(t *testing.T, raw []byte, off uint8, a, b, c, d float32) {
		n := len(raw) / 12
		o := int(off % 8)
		vecs := make([][]float32, 3)
		for k := range vecs {
			vecs[k] = make([]float32, n+o)[o:]
			for i := range vecs[k] {
				vecs[k][i] = math.Float32frombits(binary.LittleEndian.Uint32(raw[4*(k*n+i):]))
			}
		}
		checkVecKernels(t, vecs[0], vecs[1], vecs[2], [4]float32{a, b, c, d}, o)
	})
}

// BenchmarkVecKernels times each pass over a wide-MLP-sized vector on the
// kernel and on the reference loop, next to the copy that bounds them all
// (docs/PERFORMANCE.md's kernel table). Bytes are the float32 side's.
func BenchmarkVecKernels(b *testing.B) {
	const n = 3_150_000
	r := rng.New(25)
	p, g, v, q := make([]float32, n), make([]float32, n), make([]float32, n), make([]int8, n)
	for i := range g {
		p[i], g[i] = float32(r.NormFloat64()), float32(r.NormFloat64())
	}
	inv := 127 / MaxAbsF32(g)
	rt := cloneAt(g, 0) // the round trip's own input: in the codec's range, as a gradient is
	passes := []struct {
		name string
		run  func()
	}{
		{"axpy", func() { AxpyF32(1, g, p) }},
		{"sgd", func() { SGDStepF32(p, g, v, 0.25, 1e-3, 0.9, 1e-4) }},
		{"maxabs", func() { MaxAbsF32(g) }},
		{"quant8", func() { Quant8F32(q, g, inv, 1/inv, false) }},
		{"quant8-roundtrip", func() { Quant8F32(q, rt, inv, 1/inv, true) }},
		{"dequant8", func() { Dequant8F32(p, q, 1/inv) }},
		{"relumask", func() { ReLUMaskF32(v, g, p) }},
	}
	bench := func(name string, run func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(4 * n)
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
	bench("copy", func() { copy(p, g) })
	for _, ps := range passes {
		bench(ps.name+"/avx2", ps.run)
		bench(ps.name+"/scalar", func() { withoutAVX2(ps.run) })
	}
}
