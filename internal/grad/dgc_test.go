package grad

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"disttrain/internal/opt"
	"disttrain/internal/rng"
)

func TestTopKIndicesKnown(t *testing.T) {
	v := []float32{0.1, -5, 2, 0.01, 3, -4}
	got := topKIndices(v, 3)
	want := []int{1, 4, 5} // |−5|, |3|, |−4| → sorted by index
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("topK = %v, want %v", got, want)
		}
	}
}

func TestTopKAllWhenKLarge(t *testing.T) {
	v := []float32{1, 2, 3}
	got := topKIndices(v, 10)
	if len(got) != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestTopKProperty(t *testing.T) {
	// Every selected |value| must be >= every unselected |value|.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(200)
		k := 1 + r.Intn(n)
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		idx := topKIndices(v, k)
		if len(idx) != k {
			return false
		}
		sel := make(map[int]bool, k)
		var minSel float64 = math.Inf(1)
		for _, i := range idx {
			sel[i] = true
			if a := math.Abs(float64(v[i])); a < minSel {
				minSel = a
			}
		}
		for i := range v {
			if !sel[i] && math.Abs(float64(v[i])) > minSel+1e-12 {
				return false
			}
		}
		return sort.IntsAreSorted(idx)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressSelectsLargest(t *testing.T) {
	cfg := DGCConfig{Ratio: 0.25, Momentum: 0, ClipNorm: 0}
	c := NewCompressor(cfg, 8)
	g := []float32{0, 0, 10, 0, 0, -20, 0, 0}
	sp := c.Compress(g)
	if len(sp.Idx) != 2 {
		t.Fatalf("k = %d, want 2", len(sp.Idx))
	}
	if sp.Idx[0] != 2 || sp.Idx[1] != 5 {
		t.Fatalf("idx = %v", sp.Idx)
	}
	if sp.Val[0] != 10 || sp.Val[1] != -20 {
		t.Fatalf("val = %v", sp.Val)
	}
}

func TestResidualAccumulation(t *testing.T) {
	// Entries not transmitted must accumulate locally and eventually win.
	cfg := DGCConfig{Ratio: 1.0 / 8.0, Momentum: 0, ClipNorm: 0}
	c := NewCompressor(cfg, 8)
	g := []float32{1, 0, 0, 0, 0, 0, 0, 5}
	sp := c.Compress(g) // index 7 wins
	if sp.Idx[0] != 7 {
		t.Fatalf("first pick %v", sp.Idx)
	}
	// index 0 keeps accumulating 1 per step; index 7 resets after send.
	sp = c.Compress([]float32{1, 0, 0, 0, 0, 0, 0, 0})
	if sp.Idx[0] != 0 {
		t.Fatalf("second pick %v, want accumulated index 0", sp.Idx)
	}
	if math.Abs(float64(sp.Val[0])-2) > 1e-6 {
		t.Fatalf("accumulated value = %v, want 2", sp.Val[0])
	}
}

func TestNoGradientIsLost(t *testing.T) {
	// Without momentum/clipping, sum(transmitted) + sum(residual) must equal
	// sum(all gradients fed in): sparsification delays but never drops mass.
	cfg := DGCConfig{Ratio: 0.1, Momentum: 0, ClipNorm: 0}
	n := 50
	c := NewCompressor(cfg, n)
	r := rng.New(3)
	dense := make([]float32, n)
	var fedSum float64
	for step := 0; step < 20; step++ {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(r.NormFloat64())
			fedSum += float64(g[i])
		}
		sp := c.Compress(g)
		if err := Decompress(sp, 1, dense); err != nil {
			t.Fatal(err)
		}
	}
	var got float64
	for _, v := range dense {
		got += float64(v)
	}
	for _, v := range c.Residual() {
		got += float64(v)
	}
	if math.Abs(got-fedSum) > 1e-3 {
		t.Fatalf("mass: transmitted+residual %v, fed %v", got, fedSum)
	}
}

func TestMomentumCorrection(t *testing.T) {
	// With momentum m and a constant gradient, u converges to g/(1-m); the
	// first compress sends v = u_1 = g.
	cfg := DGCConfig{Ratio: 1, Momentum: 0.9, ClipNorm: 0}
	c := NewCompressor(cfg, 2)
	sp := c.Compress([]float32{1, 1})
	if math.Abs(float64(sp.Val[0])-1) > 1e-6 {
		t.Fatalf("first send %v", sp.Val[0])
	}
	// Factor masking zeroed u after send; so next send is again 1.
	sp = c.Compress([]float32{1, 1})
	if math.Abs(float64(sp.Val[0])-1) > 1e-6 {
		t.Fatalf("masked momentum: second send %v, want 1", sp.Val[0])
	}
}

func TestFactorMaskingAblation(t *testing.T) {
	cfg := DGCConfig{Ratio: 1, Momentum: 0.9, ClipNorm: 0, NoFactorMasking: true}
	c := NewCompressor(cfg, 1)
	c.Compress([]float32{1})
	sp := c.Compress([]float32{1})
	// Without masking u survives: u2 = 0.9*1 + 1 = 1.9.
	if math.Abs(float64(sp.Val[0])-1.9) > 1e-6 {
		t.Fatalf("unmasked second send %v, want 1.9", sp.Val[0])
	}
}

func TestWarmupRampsSparsity(t *testing.T) {
	cfg := DGCConfig{Ratio: 0.001, Momentum: 0, WarmupIters: 100}
	c := NewCompressor(cfg, 1000)
	r0 := c.CurrentRatio()
	if r0 != 1 {
		t.Fatalf("warmup start ratio %v, want 1 (dense)", r0)
	}
	g := make([]float32, 1000)
	for i := range g {
		g[i] = 1
	}
	prev := 1.0
	for step := 0; step < 100; step++ {
		c.Compress(g)
		cur := c.CurrentRatio()
		if cur > prev+1e-12 {
			t.Fatalf("warmup ratio increased at %d: %v -> %v", step, prev, cur)
		}
		prev = cur
	}
	if got := c.CurrentRatio(); got != 0.001 {
		t.Fatalf("post-warmup ratio %v", got)
	}
}

func TestWireBytes(t *testing.T) {
	sp := Sparse{Idx: make([]int32, 10), Val: make([]float32, 10), Dense: 100}
	if sp.WireBytes() != 80 {
		t.Fatalf("wire bytes = %d", sp.WireBytes())
	}
}

func TestCompressionRatioOnWire(t *testing.T) {
	// Post-warm-up DGC must cut wire size by ~99.8% (8 bytes per 0.1%).
	n := 100000
	cfg := DGCConfig{Ratio: 0.001, Momentum: 0.9, ClipNorm: 2}
	c := NewCompressor(cfg, n)
	r := rng.New(4)
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(r.NormFloat64())
	}
	sp := c.Compress(g)
	dense := int64(n * 4)
	if sp.WireBytes() > dense/100 {
		t.Fatalf("wire %d vs dense %d: insufficient compression", sp.WireBytes(), dense)
	}
}

func TestDecompressScale(t *testing.T) {
	dense := make([]float32, 4)
	if err := Decompress(Sparse{Idx: []int32{1, 3}, Val: []float32{2, -4}, Dense: 4}, 0.5, dense); err != nil {
		t.Fatal(err)
	}
	if dense[1] != 1 || dense[3] != -2 || dense[0] != 0 {
		t.Fatalf("dense = %v", dense)
	}
}

func TestDecompressValidation(t *testing.T) {
	cases := []struct {
		name  string
		sp    Sparse
		dense []float32
	}{
		{"length mismatch", Sparse{Idx: []int32{0}, Val: []float32{1}, Dense: 4}, make([]float32, 3)},
		{"idx/val mismatch", Sparse{Idx: []int32{0, 1}, Val: []float32{1}, Dense: 4}, make([]float32, 4)},
		{"index too large", Sparse{Idx: []int32{4}, Val: []float32{1}, Dense: 4}, make([]float32, 4)},
		{"negative index", Sparse{Idx: []int32{-1}, Val: []float32{1}, Dense: 4}, make([]float32, 4)},
		{"duplicate sorted", Sparse{Idx: []int32{1, 1}, Val: []float32{1, 2}, Dense: 4}, make([]float32, 4)},
		{"duplicate unsorted", Sparse{Idx: []int32{2, 0, 2}, Val: []float32{1, 2, 3}, Dense: 4}, make([]float32, 4)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := Decompress(tc.sp, 1, tc.dense); err == nil {
				t.Fatalf("expected error for %s", tc.name)
			}
			for i, v := range tc.dense {
				if v != 0 {
					t.Fatalf("dense modified at %d despite error: %v", i, v)
				}
			}
		})
	}
	// Unsorted but valid payloads must still decompress.
	dense := make([]float32, 4)
	if err := Decompress(Sparse{Idx: []int32{3, 0}, Val: []float32{1, 2}, Dense: 4}, 1, dense); err != nil {
		t.Fatal(err)
	}
	if dense[3] != 1 || dense[0] != 2 {
		t.Fatalf("dense = %v", dense)
	}
}

func TestTopKTieBreakDeterministic(t *testing.T) {
	// With many tied magnitudes straddling the k boundary, selection must be
	// reproducible and must prefer lower indices among the tied group.
	n, k := 64, 8
	v := make([]float32, n)
	for i := range v {
		if i%2 == 0 {
			v[i] = 1 // 32 entries tied at |1|, only k=8 can win
		} else {
			v[i] = -1
		}
	}
	first := topKIndices(v, k)
	for trial := 0; trial < 10; trial++ {
		got := topKIndices(v, k)
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("trial %d: selection %v differs from %v", trial, got, first)
			}
		}
	}
	// Lower indices win ties: the winners must be exactly 0..k-1.
	for j, i := range first {
		if i != j {
			t.Fatalf("tie-break chose %v, want [0..%d)", first, k)
		}
	}
}

func TestTopKMatchesReferenceSort(t *testing.T) {
	// topKIndices must agree with a full sort under the same total order
	// (|v| descending, index ascending), including heavy ties.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 5 + r.Intn(100)
		k := 1 + r.Intn(n)
		v := make([]float32, n)
		for i := range v {
			// Quantize to force frequent magnitude ties.
			v[i] = float32(r.Intn(5)-2) * 0.5
		}
		ref := make([]int, n)
		for i := range ref {
			ref[i] = i
		}
		sort.SliceStable(ref, func(a, b int) bool {
			aa := math.Abs(float64(v[ref[a]]))
			ab := math.Abs(float64(v[ref[b]]))
			if aa != ab {
				return aa > ab
			}
			return ref[a] < ref[b]
		})
		want := append([]int(nil), ref[:k]...)
		sort.Ints(want)
		got := topKIndices(v, k)
		if len(got) != k {
			return false
		}
		for j := range want {
			if got[j] != want[j] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValidate(t *testing.T) {
	if (DGCConfig{Ratio: 0}).Validate() == nil {
		t.Fatal("ratio 0 accepted")
	}
	if (DGCConfig{Ratio: 2}).Validate() == nil {
		t.Fatal("ratio 2 accepted")
	}
	if err := DefaultDGC(0.9, 10).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestClippingBoundsContribution(t *testing.T) {
	cfg := DGCConfig{Ratio: 1, Momentum: 0, ClipNorm: 1}
	c := NewCompressor(cfg, 2)
	sp := c.Compress([]float32{30, 40}) // norm 50 -> clipped to 1
	norm := math.Hypot(float64(sp.Val[0]), float64(sp.Val[1]))
	if math.Abs(norm-1) > 1e-5 {
		t.Fatalf("clipped norm %v", norm)
	}
	// Clipping must not modify the caller's gradient.
	g := []float32{30, 40}
	c2 := NewCompressor(cfg, 2)
	c2.Compress(g)
	if g[0] != 30 || g[1] != 40 {
		t.Fatal("Compress mutated caller's gradient")
	}
}

// TestClipFoldMatchesClippedCopy holds Compress's clipping, folded into the
// accumulation pass, to the clipped copy it replaced — copy g, then
// opt.ClipByL2Norm, then accumulate the copy — bit for bit, over steps that
// clip and steps that do not, with and without momentum correction, on
// gradients holding ±Inf, NaN, ±0 and subnormals.
func TestClipFoldMatchesClippedCopy(t *testing.T) {
	const n = 4099
	for _, noMom := range []bool{false, true} {
		cfg := DGCConfig{Ratio: 0.01, Momentum: 0.9, ClipNorm: 40, NoMomentumCorrection: noMom}
		c := NewCompressor(cfg, n)
		u, v := make([]float32, n), make([]float32, n)
		r := rng.New(9)
		g := make([]float32, n)
		for step := 0; step < 12; step++ {
			scale := []float64{0.1, 3}[step%2] // norm ≈ 6 (kept) or ≈ 190 (clipped)
			for i := range g {
				g[i] = float32(r.NormFloat64() * scale)
			}
			if step >= 8 { // non-finite norms: +Inf, then NaN
				specials := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 0, float32(math.Copysign(0, -1)), 1e-44}
				for i, x := range specials[:step-6] {
					g[i*97] = x
				}
			}
			clipped := append([]float32(nil), g...)
			opt.ClipByL2Norm(clipped, cfg.ClipNorm)
			for i, gi := range clipped {
				if noMom {
					v[i] += gi
				} else {
					u[i] = cfg.Momentum*u[i] + gi
					v[i] += u[i]
				}
			}
			sp := c.Compress(g)
			for j, i := range sp.Idx {
				if math.Float32bits(sp.Val[j]) != math.Float32bits(v[i]) {
					t.Fatalf("noMom=%v step %d: value at %d is %v, clipped copy %v", noMom, step, i, sp.Val[j], v[i])
				}
				v[i] = 0
				if !noMom {
					u[i] = 0
				}
			}
			for i, x := range c.Residual() {
				if math.Float32bits(x) != math.Float32bits(v[i]) {
					t.Fatalf("noMom=%v step %d: residual %d is %v, clipped copy %v", noMom, step, i, x, v[i])
				}
			}
		}
	}
}

func BenchmarkCompress100k(b *testing.B) {
	n := 100000
	c := NewCompressor(DefaultDGC(0.9, 0), n)
	r := rng.New(1)
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(r.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Compress(g)
	}
}
