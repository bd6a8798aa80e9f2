package tensor

import (
	"math"
	"testing"

	"disttrain/internal/rng"
)

// randMat fills an m×n tensor with standard normals.
func randMat(r *rng.RNG, m, n int) *Tensor {
	t := New(m, n)
	t.RandNormal(r, 1)
	return t
}

// TestGemmVariantsMatchNaiveRandomShapes cross-checks all three kernels
// against the float64 triple loop over shapes chosen to cross every
// structural boundary: the 4-row/4-column quad unrolls (remainders 0-3), the
// gemmBlockK k-panel edge, and single-row/column degenerate cases.
func TestGemmVariantsMatchNaiveRandomShapes(t *testing.T) {
	r := rng.New(99)
	shapes := [][3]int{
		{1, 1, 1},
		{1, 7, 1},
		{4, 4, 4},
		{5, 3, 6},                 // row remainder 1
		{7, 2, 9},                 // row remainder 3, col remainder 1
		{8, gemmBlockK, 5},        // k exactly one block
		{6, gemmBlockK + 1, 7},    // k crosses the block edge
		{3, 2*gemmBlockK + 17, 4}, // k spans three blocks
		{16, 33, 16},
	}
	for trial := 0; trial < 30; trial++ {
		shapes = append(shapes, [3]int{1 + r.Intn(20), 1 + r.Intn(300), 1 + r.Intn(20)})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		want := naiveMatMul(a, b)
		tol := 1e-3 * math.Sqrt(float64(k))

		c1 := New(m, n)
		MatMul(a, b, c1)
		if !almostEqual(c1.Data, want.Data, tol) {
			t.Fatalf("MatMul %v disagrees with naive", s)
		}
		c2 := New(m, n)
		MatMulTransA(transpose(a), b, c2)
		if !almostEqual(c2.Data, want.Data, tol) {
			t.Fatalf("MatMulTransA %v disagrees with naive", s)
		}
		c3 := New(m, n)
		MatMulTransB(a, transpose(b), c3)
		if !almostEqual(c3.Data, want.Data, tol) {
			t.Fatalf("MatMulTransB %v disagrees with naive", s)
		}
	}
}

// TestGemmParallelBitIdentical proves the tentpole's determinism claim: the
// parallel fan-out must produce byte-identical results to the serial kernel,
// for every variant, at shapes large enough to actually go parallel.
func TestGemmParallelBitIdentical(t *testing.T) {
	r := rng.New(7)
	// 96×512×80 ≈ 7.9 MFLOPs, far above gemmParallelMinFLOPs; 96 rows split
	// unevenly across 8 goroutines, exercising ragged panel boundaries too.
	shapes := [][3]int{{96, 512, 80}, {33, 700, 17}, {5, 60000, 3}}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		bT := transpose(b)
		aT := transpose(a)

		check := func(name string, compute func(c *Tensor)) {
			serial := New(m, n)
			gemmForceProcs.Store(1)
			compute(serial)
			par := New(m, n)
			gemmForceProcs.Store(8)
			compute(par)
			gemmForceProcs.Store(0)
			for i := range serial.Data {
				if math.Float32bits(serial.Data[i]) != math.Float32bits(par.Data[i]) {
					t.Fatalf("%s %v: element %d differs serial=%x parallel=%x",
						name, s, i, math.Float32bits(serial.Data[i]), math.Float32bits(par.Data[i]))
				}
			}
		}
		check("MatMul", func(c *Tensor) { MatMul(a, b, c) })
		check("MatMulTransA", func(c *Tensor) { MatMulTransA(aT, b, c) })
		check("MatMulTransB", func(c *Tensor) { MatMulTransB(a, bT, c) })
	}
}

// TestGemmVectorBitIdenticalToScalar proves the AVX2 micro-kernels don't
// change a single output bit: the same multiply with the vector path forced
// off must match bit-for-bit, for all variants and the fused epilogues, over
// shapes that hit every band/remainder/block combination. On hosts without
// AVX2 both runs take the scalar path and the test trivially passes.
func TestGemmVectorBitIdenticalToScalar(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: vector path never taken")
	}
	r := rng.New(41)
	shapes := [][3]int{
		{1, 1, 1},
		{4, 8, 16},                 // exactly one band, one row quad
		{5, 60, 17},                // row remainder 1, col remainder 1
		{7, 9, 33},                 // two bands + 1 col, row remainder 3
		{16, gemmBlockK + 5, 48},   // k crosses the block edge
		{3, 2*gemmBlockK + 17, 31}, // k spans three blocks, col remainder 15
		{9, 64, gemmBlockN + 24},   // n crosses the column-block edge
		{64, 512, 64},
	}
	for trial := 0; trial < 20; trial++ {
		shapes = append(shapes, [3]int{1 + r.Intn(24), 1 + r.Intn(400), 1 + r.Intn(80)})
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(r, m, k)
		b := randMat(r, k, n)
		aT := transpose(a)
		bT := transpose(b)
		bias := make([]float32, n)
		for j := range bias {
			bias[j] = float32(r.NormFloat64())
		}

		check := func(name string, compute func(c *Tensor)) {
			vec := New(m, n)
			compute(vec)
			scalar := New(m, n)
			gemmForceScalar.Store(true)
			compute(scalar)
			gemmForceScalar.Store(false)
			for i := range vec.Data {
				if math.Float32bits(vec.Data[i]) != math.Float32bits(scalar.Data[i]) {
					t.Fatalf("%s %v: element %d differs vector=%x scalar=%x",
						name, s, i, math.Float32bits(vec.Data[i]), math.Float32bits(scalar.Data[i]))
				}
			}
		}
		check("MatMul", func(c *Tensor) { MatMul(a, b, c) })
		check("MatMulTransA", func(c *Tensor) { MatMulTransA(aT, b, c) })
		check("MatMulTransB", func(c *Tensor) { MatMulTransB(a, bT, c) })
		check("MatMulBias", func(c *Tensor) { MatMulBias(a, bT, c, bias) })
		check("MatMulBiasReLU", func(c *Tensor) { MatMulBiasReLU(a, bT, c, bias) })
	}
}

// sweepData returns n floats for the band sweep: normal draws salted with
// the values that expose a lane-order or rounding slip — −0 and denormals
// everywhere, and with poison set also NaN and ±Inf (sparse enough that
// most dot products stay finite).
func sweepData(r *rng.RNG, n int, poison bool) []float32 {
	d := make([]float32, n)
	for i := range d {
		d[i] = float32(r.NormFloat64())
	}
	tiny := math.Float32frombits(1) // smallest denormal
	for i := 5; i < n; i += 61 {
		d[i] = float32(math.Copysign(0, -1))
	}
	for i := 11; i < n; i += 67 {
		d[i] = tiny * float32(1+r.Intn(1<<20))
	}
	if poison {
		for i, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
			for j := 17 + 400*i; j < n; j += 1201 {
				d[j] = v
			}
		}
	}
	return d
}

// sameF32 is bit equality, except that any two NaNs are equal: which of two
// NaN operands' sign and payload an add or multiply hands on depends on the
// operand order the compiler picked for the scalar expression, which Go
// does not define (the 16-wide kernels differ from the scalar tiles there
// too), and nothing downstream reads a NaN's payload.
func sameF32(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// sweepShape runs all three variants and both fused epilogues at one m×k×n
// over the front of the given data: the vector path, serial and split over 8
// goroutines, into an output poisoned beforehand (every path must overwrite
// C), against the scalar path's bits. The caller restores the force hooks.
func sweepShape(t *testing.T, ad, bd, bias []float32, m, k, n int, poison bool) {
	t.Helper()
	a, aT := FromSlice(ad[:m*k], m, k), FromSlice(ad[:m*k], k, m)
	b, bT := FromSlice(bd[:k*n], k, n), FromSlice(bd[:k*n], n, k)
	variants := []struct {
		name    string
		compute func(c *Tensor)
	}{
		{"MatMul", func(c *Tensor) { MatMul(a, b, c) }},
		{"MatMulTransA", func(c *Tensor) { MatMulTransA(aT, b, c) }},
		{"MatMulTransB", func(c *Tensor) { MatMulTransB(a, bT, c) }},
		{"MatMulBias", func(c *Tensor) { MatMulBias(a, bT, c, bias[:n]) }},
		{"MatMulBiasReLU", func(c *Tensor) { MatMulBiasReLU(a, bT, c, bias[:n]) }},
	}
	for _, v := range variants {
		want, got := New(m, n), New(m, n)
		gemmForceScalar.Store(true)
		gemmForceProcs.Store(1)
		v.compute(want)
		gemmForceScalar.Store(false)
		for _, procs := range []int32{1, 8} {
			gemmForceProcs.Store(procs)
			got.Fill(float32(math.NaN()))
			v.compute(got)
			for i := range want.Data {
				if !sameF32(got.Data[i], want.Data[i]) {
					t.Fatalf("%s %dx%dx%d poison=%v procs=%d: element %d vector=%x scalar=%x", v.name, m, k, n,
						poison, procs, i, math.Float32bits(got.Data[i]), math.Float32bits(want.Data[i]))
				}
			}
		}
	}
}

// TestGemmBandSweepBitIdentical walks every column count through the
// 16-wide bands, the 8-wide band and the scalar tail (n = 1…40 and the
// dcols width 72) at row counts around the 8-row and 4-row kernel edges, the
// two-group skinny A·Bᵀ path (9, 15, 16 rows) and its edge (17), and the
// conv-sized 4096, for k below, at and across one block: all three
// variants and both fused epilogues must give the scalar path's bits from
// the vector path, serial and split over 8 goroutines.
func TestGemmBandSweepBitIdentical(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: vector path never taken")
	}
	ms := []int{1, 3, 7, 8, 9, 15, 16, 17, 4096}
	ks := []int{1, 8, 9, 72, gemmBlockK + 1}
	ns := []int{72}
	for n := 1; n <= 40; n++ {
		ns = append(ns, n)
	}
	bandLayouts := map[int]bool{1: true, 7: true, 8: true, 9: true, 15: true, 16: true, 17: true, 24: true, 31: true, 40: true, 72: true}
	defer gemmForceProcs.Store(0)
	defer gemmForceScalar.Store(false)
	for _, poison := range []bool{false, true} {
		r := rng.New(47)
		ad := sweepData(r, 4096*(gemmBlockK+1), poison)
		bd := sweepData(r, (gemmBlockK+1)*72, poison)
		bias := sweepData(r, 72, false)
		for _, m := range ms {
			for _, k := range ks {
				for _, n := range ns {
					// The conv-sized row count is there for the real
					// goroutine split and long runs of the 8-row kernel;
					// one n per band layout and clean data keep it to a
					// few seconds.
					if m == 4096 && (poison || !bandLayouts[n]) {
						continue
					}
					sweepShape(t, ad, bd, bias, m, k, n, poison)
				}
			}
		}
	}
}

// TestGemmSkinnySweepBitIdentical is the band sweep for the shapes a dense
// layer issues at a small batch, where the skinny paths take over: row
// counts across the 8-row edge of the pack-free A·Bᵀ and A·B paths and the
// 16-row minimum panel, k across the small-k edge of Aᵀ·B (16|17) and the k
// block edge (239, 240, 241, and 4096 = 18 blocks), n across the 8-lane and
// 16-lane edges and one full Cᵀ scratch (512). Every variant and fused
// epilogue must give the scalar blocked path's bits, serial and at 8 procs,
// on data salted with ±0 and denormals and then with NaN and ±Inf.
func TestGemmSkinnySweepBitIdentical(t *testing.T) {
	if !hasAVX2 {
		t.Skip("no AVX2: vector path never taken")
	}
	ms := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17}
	ks := []int{1, 8, 16, 17, gemmBlockK - 1, gemmBlockK, gemmBlockK + 1, 4096}
	ns := []int{1, 7, 8, 9, 16, 17, gemmSkinnyCols}
	defer gemmForceProcs.Store(0)
	defer gemmForceScalar.Store(false)
	for _, poison := range []bool{false, true} {
		r := rng.New(53)
		ad := sweepData(r, 17*4096, poison)
		bd := sweepData(r, 4096*gemmSkinnyCols, poison)
		bias := sweepData(r, gemmSkinnyCols, false)
		for _, m := range ms {
			for _, k := range ks {
				for _, n := range ns {
					// The deep k is there for many folds per element and the
					// repacking of A per block; a few row counts on either
					// side of each edge keep the scalar reference affordable.
					if k == 4096 && m != 1 && m != 5 && m != 8 && m != 9 && m != 17 {
						continue
					}
					sweepShape(t, ad, bd, bias, m, k, n, poison)
				}
			}
		}
	}
}

// TestGemmFusedEpilogueBitIdentical proves the tentpole's fusion contract:
// MatMulBias / MatMulBiasReLU must equal MatMulTransB followed by separate
// bias-add and ReLU passes, bit for bit, across odd shapes and at every pool
// size. NaN outputs must become 0 under ReLU exactly like the standalone
// layer (`v > 0` test).
func TestGemmFusedEpilogueBitIdentical(t *testing.T) {
	r := rng.New(43)
	shapes := [][3]int{
		{1, 1, 1}, {3, 5, 7}, {5, 60, 17}, {13, 31, 29},
		{7, gemmBlockK + 3, 33}, {96, 512, 80}, // last one large enough to go parallel
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := randMat(r, m, k)
		bT := randMat(r, n, k)
		bias := make([]float32, n)
		for j := range bias {
			bias[j] = float32(r.NormFloat64())
		}
		// Poison one output via 0·NaN so the epilogue's NaN handling is hit.
		if k > 1 && m > 1 && n > 1 {
			a.Data[k] = 0
			bT.Data[n*k-k] = float32(math.NaN())
		}
		for _, procs := range []int32{1, 8} {
			gemmForceProcs.Store(procs)
			want := New(m, n)
			MatMulTransB(a, bT, want)
			for i := 0; i < m; i++ {
				row := want.Data[i*n : i*n+n]
				for j := range row {
					row[j] += bias[j]
				}
			}
			fusedB := New(m, n)
			MatMulBias(a, bT, fusedB, bias)
			for i := range want.Data {
				if math.Float32bits(want.Data[i]) != math.Float32bits(fusedB.Data[i]) {
					t.Fatalf("MatMulBias %v procs=%d: element %d differs", s, procs, i)
				}
			}
			// Standalone ReLU semantics: v > 0 keeps v, else (incl. NaN) 0.
			for i := range want.Data {
				if !(want.Data[i] > 0) {
					want.Data[i] = 0
				}
			}
			fusedR := New(m, n)
			MatMulBiasReLU(a, bT, fusedR, bias)
			for i := range want.Data {
				if math.Float32bits(want.Data[i]) != math.Float32bits(fusedR.Data[i]) {
					t.Fatalf("MatMulBiasReLU %v procs=%d: element %d differs", s, procs, i)
				}
			}
		}
		gemmForceProcs.Store(0)
	}
}

// TestGemmFusedBiasLengthValidated pins the bias length contract.
func TestGemmFusedBiasLengthValidated(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short bias")
		}
	}()
	a, b, c := New(2, 3), New(4, 3), New(2, 4)
	MatMulBiasReLU(a, b, c, make([]float32, 3))
}

// TestGemmNaNPropagates is the regression test for the zero-skip bug: the old
// kernels skipped the inner loop when an A element was zero, so a NaN or Inf
// in B could be silently dropped (0·NaN must be NaN, not 0). Every variant
// must propagate non-finite values even when the matching operand is zero.
func TestGemmNaNPropagates(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))

	// A has an explicit zero in the position that multiplies the NaN in B.
	a := FromSlice([]float32{0, 1, 0, 2}, 2, 2)
	b := FromSlice([]float32{nan, 3, 4, 5}, 2, 2)
	c := New(2, 2)
	MatMul(a, b, c)
	// c[0,0] = 0·NaN + 1·4 → NaN.
	if !math.IsNaN(float64(c.Data[0])) {
		t.Fatalf("MatMul swallowed NaN: C = %v", c.Data)
	}

	MatMulTransA(transpose(a), b, c)
	if !math.IsNaN(float64(c.Data[0])) {
		t.Fatalf("MatMulTransA swallowed NaN: C = %v", c.Data)
	}

	MatMulTransB(a, transpose(b), c)
	if !math.IsNaN(float64(c.Data[0])) {
		t.Fatalf("MatMulTransB swallowed NaN: C = %v", c.Data)
	}

	// Inf must propagate the same way (0·Inf = NaN).
	b2 := FromSlice([]float32{inf, 3, 4, 5}, 2, 2)
	MatMul(a, b2, c)
	if !math.IsNaN(float64(c.Data[0])) {
		t.Fatalf("MatMul swallowed Inf: C = %v", c.Data)
	}

	// A zero-row times a NaN-free B stays finite (sanity: zeros still work).
	b3 := FromSlice([]float32{1, 2, 3, 4}, 2, 2)
	MatMul(a, b3, c)
	if c.Data[0] != 3 || c.Data[1] != 4 {
		t.Fatalf("zero handling broken: C = %v", c.Data)
	}
}

// TestGemmNaNPropagatesLarge pushes a NaN through a parallel-sized multiply
// so the blocked/unrolled paths are the ones under test.
func TestGemmNaNPropagatesLarge(t *testing.T) {
	r := rng.New(3)
	m, k, n := 64, 512, 64
	a := randMat(r, m, k)
	b := randMat(r, k, n)
	for i := 0; i < m; i++ {
		a.Data[i*k+17] = 0 // zero column of A multiplying the poisoned B row
	}
	for j := 0; j < n; j++ {
		b.Data[17*n+j] = float32(math.NaN())
	}
	c := New(m, n)
	MatMul(a, b, c)
	for i, v := range c.Data {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("element %d finite (%v); NaN row was dropped", i, v)
		}
	}
}

func TestGemmDispatchCoversAllRows(t *testing.T) {
	// Every row in [0, m) must be visited exactly once for awkward m/procs
	// combinations (m < procs, m % procs != 0, m == 1).
	for _, m := range []int{1, 2, 7, 8, 9, 100} {
		for _, procs := range []int{1, 3, 8, 16} {
			counts := make([]int32, m)
			gemmDispatch(m, procs, func(i0, i1 int) {
				for i := i0; i < i1; i++ {
					counts[i]++ // disjoint ranges: no race by construction
				}
			})
			for i, cnt := range counts {
				if cnt != 1 {
					t.Fatalf("m=%d procs=%d: row %d visited %d times", m, procs, i, cnt)
				}
			}
		}
	}
}

// TestGemmWidthKeepsPanelsTall: the fan-out never cuts a panel shorter than
// gemmMinPanelRows (each panel packs all of B for itself), stays serial
// under the FLOP cutoff, and otherwise uses every goroutine it is given.
func TestGemmWidthKeepsPanelsTall(t *testing.T) {
	defer gemmForceProcs.Store(0)
	big := gemmParallelMinFLOPs
	for _, c := range []struct{ m, procs, flops, want int }{
		{8, 8, big, 1}, {31, 8, big, 1}, {32, 8, big, 2}, {33, 2, big, 2},
		{100, 8, big, 6}, {4096, 8, big, 8}, {4096, 8, big - 1, 1}, {4096, 1, big, 1},
	} {
		gemmForceProcs.Store(int32(c.procs))
		got := gemmWidth(c.m, c.flops)
		if got != c.want {
			t.Errorf("gemmWidth(m=%d, flops=%d) at %d procs = %d, want %d", c.m, c.flops, c.procs, got, c.want)
		}
		if got > 1 && (c.m+got-1)/got < gemmMinPanelRows {
			t.Errorf("m=%d over %d goroutines cuts panels of %d rows", c.m, got, (c.m+got-1)/got)
		}
	}
}

func TestArenaReuse(t *testing.T) {
	a := NewArena()
	b1 := a.Get(64)
	b1[0] = 42
	a.Put(b1)
	b2 := a.Get(64)
	if &b1[0] != &b2[0] {
		t.Fatal("arena did not recycle the freed buffer")
	}
	if gets, hits := a.Stats(); gets != 2 || hits != 1 {
		t.Fatalf("stats = (%d, %d), want (2, 1)", gets, hits)
	}
	// Different size must not hit the 64 bucket.
	b3 := a.Get(32)
	if len(b3) != 32 {
		t.Fatalf("got %d floats, want 32", len(b3))
	}
}

func TestArenaGetZeroed(t *testing.T) {
	a := NewArena()
	buf := a.Get(8)
	for i := range buf {
		buf[i] = 1
	}
	a.Put(buf)
	z := a.GetZeroed(8)
	for i, v := range z {
		if v != 0 {
			t.Fatalf("GetZeroed[%d] = %v", i, v)
		}
	}
}

func TestArenaTensorRoundTrip(t *testing.T) {
	a := NewArena()
	x := a.GetTensor(4, 5)
	if x.Size() != 20 || x.Shape[0] != 4 || x.Shape[1] != 5 {
		t.Fatalf("shape %v", x.Shape)
	}
	data := x.Data
	a.PutTensor(x)
	if x.Data != nil {
		t.Fatal("PutTensor must nil the released tensor's data")
	}
	y := a.GetTensor(2, 10) // same size, different shape: must reuse storage
	if &y.Data[0] != &data[0] {
		t.Fatal("tensor storage not recycled across shapes of equal size")
	}
}

func TestArenaNilSafe(t *testing.T) {
	var a *Arena
	buf := a.Get(16)
	if len(buf) != 16 {
		t.Fatal("nil arena Get failed")
	}
	a.Put(buf) // must not panic
	x := a.GetTensor(3, 3)
	if x.Size() != 9 {
		t.Fatal("nil arena GetTensor failed")
	}
	a.PutTensor(x) // must not panic
	if gets, hits := a.Stats(); gets != 0 || hits != 0 {
		t.Fatal("nil arena stats must be zero")
	}
}

func TestRebind(t *testing.T) {
	var hdr Tensor
	data := []float32{1, 2, 3, 4, 5, 6}
	v := hdr.Rebind(data, 2, 3)
	if v != &hdr || v.At(1, 2) != 6 {
		t.Fatalf("rebind view wrong: %v %v", v.Shape, v.Data)
	}
	// Rebinding to a shorter view reuses the header in place.
	v2 := hdr.Rebind(data[:4], 2, 2)
	if v2.Size() != 4 {
		t.Fatal("rebind resize failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on shape/data mismatch")
		}
	}()
	hdr.Rebind(data, 7, 7)
}
