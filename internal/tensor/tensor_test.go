package tensor

import (
	"math"
	"testing"
	"testing/quick"

	"disttrain/internal/rng"
)

func TestNewShapeAndSize(t *testing.T) {
	tt := New(2, 3, 4)
	if tt.Size() != 24 || len(tt.Data) != 24 {
		t.Fatalf("size = %d, len = %d, want 24", tt.Size(), len(tt.Data))
	}
}

func TestNewPanicsOnBadShape(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero dim")
		}
	}()
	New(2, 0)
}

func TestAtSetRoundTrip(t *testing.T) {
	tt := New(2, 3)
	tt.Set(7.5, 1, 2)
	if got := tt.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
	if got := tt.Data[1*3+2]; got != 7.5 {
		t.Fatalf("row-major offset wrong: %v", got)
	}
}

func TestAtPanicsOutOfRange(t *testing.T) {
	tt := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tt.At(2, 0)
}

func TestCloneIsDeep(t *testing.T) {
	a := New(4)
	a.Fill(1)
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestFromSliceValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	FromSlice([]float32{1, 2, 3}, 2, 2)
}

func TestL2Norm(t *testing.T) {
	if got := L2NormF32([]float32{3, 4}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("L2NormF32 = %v, want 5", got)
	}
}

func TestMatMulSmall(t *testing.T) {
	a := FromSlice([]float32{1, 2, 3, 4, 5, 6}, 2, 3)
	b := FromSlice([]float32{7, 8, 9, 10, 11, 12}, 3, 2)
	c := New(2, 2)
	MatMul(a, b, c)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

// naiveMatMul is the reference implementation used to cross-check the three
// GEMM variants.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k, n := a.Shape[0], a.Shape[1], b.Shape[1]
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for p := 0; p < k; p++ {
				s += float64(a.Data[i*k+p]) * float64(b.Data[p*n+j])
			}
			c.Data[i*n+j] = float32(s)
		}
	}
	return c
}

func transpose(a *Tensor) *Tensor {
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return t
}

func almostEqual(a, b []float32, tol float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(float64(a[i])-float64(b[i])) > tol {
			return false
		}
	}
	return true
}

func TestMatMulVariantsAgree(t *testing.T) {
	r := rng.New(42)
	for trial := 0; trial < 20; trial++ {
		m, k, n := 1+r.Intn(8), 1+r.Intn(8), 1+r.Intn(8)
		a := New(m, k)
		b := New(k, n)
		a.RandNormal(r, 1)
		b.RandNormal(r, 1)
		want := naiveMatMul(a, b)

		c1 := New(m, n)
		MatMul(a, b, c1)
		if !almostEqual(c1.Data, want.Data, 1e-4) {
			t.Fatalf("trial %d: MatMul disagrees with naive", trial)
		}

		c2 := New(m, n)
		MatMulTransA(transpose(a), b, c2)
		if !almostEqual(c2.Data, want.Data, 1e-4) {
			t.Fatalf("trial %d: MatMulTransA disagrees with naive", trial)
		}

		c3 := New(m, n)
		MatMulTransB(a, transpose(b), c3)
		if !almostEqual(c3.Data, want.Data, 1e-4) {
			t.Fatalf("trial %d: MatMulTransB disagrees with naive", trial)
		}
	}
}

func TestMatMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MatMul(New(2, 3), New(4, 2), New(2, 2))
}

func TestAxpyProperty(t *testing.T) {
	// y' = y + a*x, then y'' = y' - a*x must restore y (within fp tolerance).
	f := func(seed uint64, alpha float32) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(64)
		x := make([]float32, n)
		y := make([]float32, n)
		orig := make([]float32, n)
		for i := range x {
			x[i] = float32(r.NormFloat64())
			y[i] = float32(r.NormFloat64())
			orig[i] = y[i]
		}
		if alpha > 100 || alpha < -100 {
			alpha = 1
		}
		AxpyF32(alpha, x, y)
		AxpyF32(-alpha, x, y)
		return almostEqual(y, orig, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2colIdentityKernel(t *testing.T) {
	// 1x1 kernel, stride 1, no pad: im2col is the identity layout.
	in := New(2, 3, 3)
	for i := range in.Data {
		in.Data[i] = float32(i)
	}
	out := New(2, 9)
	naiveIm2col(in, 1, 1, 1, 0, out)
	for i := range in.Data {
		if out.Data[i] != in.Data[i] {
			t.Fatalf("identity im2col mismatch at %d", i)
		}
	}
}

func TestIm2colKnownValues(t *testing.T) {
	// 1 channel, 3x3 input, 2x2 kernel, stride 1, pad 0 -> 4 columns.
	in := FromSlice([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out := New(4, 4)
	naiveIm2col(in, 2, 2, 1, 0, out)
	// Rows are kernel positions (ky,kx); columns are output positions.
	want := []float32{
		1, 2, 4, 5, // k(0,0)
		2, 3, 5, 6, // k(0,1)
		4, 5, 7, 8, // k(1,0)
		5, 6, 8, 9, // k(1,1)
	}
	if !almostEqual(out.Data, want, 0) {
		t.Fatalf("im2col = %v, want %v", out.Data, want)
	}
}

func TestIm2colPadding(t *testing.T) {
	in := FromSlice([]float32{1, 2, 3, 4}, 1, 2, 2)
	// 3x3 kernel, pad 1, stride 1 -> output 2x2, rows 9, cols 4.
	out := New(9, 4)
	naiveIm2col(in, 3, 3, 1, 1, out)
	// Center kernel position (1,1) should reproduce the input exactly.
	center := out.Data[4*4 : 4*4+4]
	if !almostEqual(center, []float32{1, 2, 3, 4}, 0) {
		t.Fatalf("center row = %v", center)
	}
	// Top-left kernel position (0,0) sees padding for all but the last output.
	tl := out.Data[0:4]
	if !almostEqual(tl, []float32{0, 0, 0, 1}, 0) {
		t.Fatalf("top-left row = %v", tl)
	}
}

func TestCol2imRoundTripAccumulates(t *testing.T) {
	// col2im(im2col(x)) multiplies each element by the number of receptive
	// fields covering it. With a 1x1 kernel that count is exactly 1.
	r := rng.New(7)
	in := New(3, 4, 4)
	in.RandNormal(r, 1)
	cols := New(3, 16)
	naiveIm2col(in, 1, 1, 1, 0, cols)
	back := New(3, 4, 4)
	naiveCol2im(cols, 3, 4, 4, 1, 1, 1, 0, back)
	if !almostEqual(back.Data, in.Data, 1e-6) {
		t.Fatal("1x1 col2im round trip failed")
	}
}

func TestCol2imOverlapCounts(t *testing.T) {
	// 2x2 kernel stride 1 on 3x3: the center element is covered by 4 fields.
	in := New(1, 3, 3)
	in.Fill(1)
	cols := New(4, 4)
	naiveIm2col(in, 2, 2, 1, 0, cols)
	back := New(1, 3, 3)
	naiveCol2im(cols, 1, 3, 3, 2, 2, 1, 0, back)
	want := []float32{1, 2, 1, 2, 4, 2, 1, 2, 1}
	if !almostEqual(back.Data, want, 0) {
		t.Fatalf("col2im overlap = %v, want %v", back.Data, want)
	}
}

func TestRandDeterminism(t *testing.T) {
	a := New(16)
	b := New(16)
	a.RandNormal(rng.New(5), 1)
	b.RandNormal(rng.New(5), 1)
	if !almostEqual(a.Data, b.Data, 0) {
		t.Fatal("RandNormal not deterministic for equal seeds")
	}
}

func BenchmarkMatMul64(b *testing.B) {
	r := rng.New(1)
	a := New(64, 64)
	bb := New(64, 64)
	c := New(64, 64)
	a.RandNormal(r, 1)
	bb.RandNormal(r, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(a, bb, c)
	}
}
