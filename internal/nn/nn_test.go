package nn

import (
	"math"
	"runtime"
	"testing"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// gradCheck compares analytic gradients against central finite differences
// for every parameter of the model on one batch.
func gradCheck(t *testing.T, m *Model, x *tensor.Tensor, labels []int, samples int, tol float64) {
	t.Helper()
	m.Loss(x, labels)
	analytic := m.Grads() // lossOnly below runs no backward pass
	flat := m.FlatParams(nil)

	n := m.NumParams()
	step := n / samples
	if step == 0 {
		step = 1
	}
	const eps = 1e-3
	checked, outliers := 0, 0
	for i := 0; i < n; i += step {
		orig := flat[i]
		flat[i] = orig + eps
		m.SetFlatParams(flat)
		lp, _ := lossOnly(m, x, labels)
		flat[i] = orig - eps
		m.SetFlatParams(flat)
		lm, _ := lossOnly(m, x, labels)
		flat[i] = orig
		m.SetFlatParams(flat)

		numeric := (lp - lm) / (2 * eps)
		a := float64(analytic[i])
		denom := math.Max(1, math.Max(math.Abs(a), math.Abs(numeric)))
		if math.Abs(a-numeric)/denom > tol {
			// Max-pool argmax and ReLU kinks make the loss piecewise smooth;
			// a perturbation can land across a kink and corrupt the finite
			// difference. Tolerate rare outliers but not systematic error.
			outliers++
			t.Logf("param %d: analytic %g vs numeric %g (possible kink)", i, a, numeric)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no parameters checked")
	}
	if float64(outliers) > 0.1*float64(checked)+1 {
		t.Fatalf("%d/%d gradient checks failed — systematic backward error", outliers, checked)
	}
}

func lossOnly(m *Model, x *tensor.Tensor, labels []int) (float64, int) {
	logits := m.Forward(x, true)
	loss, correct, _, _ := SoftmaxCrossEntropy(logits, labels, nil)
	return loss, correct
}

func TestGradCheckMLP(t *testing.T) {
	r := rng.New(1)
	m := NewMLP(r, 4, 8, 3)
	x := tensor.New(5, 4)
	x.RandNormal(r, 1)
	labels := []int{0, 1, 2, 0, 1}
	gradCheck(t, m, x, labels, 60, 2e-2)
}

func TestGradCheckMiniCNN(t *testing.T) {
	r := rng.New(2)
	m := NewMiniCNN(r, 4)
	x := tensor.New(2, 1, 16, 16)
	x.RandNormal(r, 1)
	labels := []int{1, 3}
	gradCheck(t, m, x, labels, 40, 3e-2)
}

func TestGradCheckMiniResNet(t *testing.T) {
	r := rng.New(3)
	m := NewMiniResNet(r, 4)
	x := tensor.New(2, 1, 16, 16)
	x.RandNormal(r, 1)
	labels := []int{0, 2}
	gradCheck(t, m, x, labels, 40, 3e-2)
}

func TestGradCheckMiniVGG(t *testing.T) {
	r := rng.New(4)
	m := NewMiniVGG(r, 4)
	x := tensor.New(2, 1, 16, 16)
	x.RandNormal(r, 1)
	labels := []int{0, 3}
	gradCheck(t, m, x, labels, 40, 3e-2)
}

func TestSoftmaxCrossEntropyKnown(t *testing.T) {
	// Uniform logits over C classes give loss = ln(C).
	logits := tensor.New(2, 4)
	loss, correct, dl, _ := SoftmaxCrossEntropy(logits, []int{0, 1}, nil)
	if math.Abs(loss-math.Log(4)) > 1e-6 {
		t.Fatalf("uniform loss = %v, want ln4 = %v", loss, math.Log(4))
	}
	// argmax of all-equal logits is index 0, so exactly one "correct" (label 0).
	if correct != 1 {
		t.Fatalf("correct = %d, want 1", correct)
	}
	// Gradient rows must each sum to zero (softmax minus one-hot).
	for i := 0; i < 2; i++ {
		var s float64
		for j := 0; j < 4; j++ {
			s += float64(dl.Data[i*4+j])
		}
		if math.Abs(s) > 1e-6 {
			t.Fatalf("dlogits row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	logits := tensor.FromSlice([]float32{1000, 0, -1000}, 1, 3)
	loss, _, dl, _ := SoftmaxCrossEntropy(logits, []int{0}, nil)
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss = %v", loss)
	}
	for _, v := range dl.Data {
		if math.IsNaN(float64(v)) {
			t.Fatal("NaN in gradient")
		}
	}
	if loss > 1e-6 {
		t.Fatalf("confident correct prediction should have ~0 loss, got %v", loss)
	}
}

func TestFlatRoundTrip(t *testing.T) {
	r := rng.New(5)
	m := NewMiniVGG(r, 3)
	flat := m.FlatParams(nil)
	if len(flat) != m.NumParams() {
		t.Fatalf("flat len %d, want %d", len(flat), m.NumParams())
	}
	// Perturb, set, read back.
	for i := range flat {
		flat[i] += 0.25
	}
	m.SetFlatParams(flat)
	got := m.FlatParams(nil)
	for i := range flat {
		if got[i] != flat[i] {
			t.Fatalf("round trip mismatch at %d", i)
		}
	}
}

func TestSegmentsCoverFlatVector(t *testing.T) {
	r := rng.New(6)
	for _, mk := range []func() *Model{
		func() *Model { return NewMLP(r, 3, 5, 2) },
		func() *Model { return NewMiniCNN(r, 3) },
		func() *Model { return NewMiniResNet(r, 3) },
		func() *Model { return NewMiniVGG(r, 3) },
	} {
		m := mk()
		segs := m.Segments()
		off := 0
		for _, s := range segs {
			if s.Off != off {
				t.Fatalf("%s: segment %s at %d, want %d", m.Name, s.Name, s.Off, off)
			}
			if s.Len <= 0 {
				t.Fatalf("%s: empty segment %s", m.Name, s.Name)
			}
			off += s.Len
		}
		if off != m.NumParams() {
			t.Fatalf("%s: segments cover %d, want %d", m.Name, off, m.NumParams())
		}
	}
}

func TestMiniVGGHasSkewedLayer(t *testing.T) {
	m := NewMiniVGG(rng.New(7), 10)
	var maxSeg, total int
	for _, s := range m.Segments() {
		if s.Len > maxSeg {
			maxSeg = s.Len
		}
		total += s.Len
	}
	if frac := float64(maxSeg) / float64(total); frac < 0.6 {
		t.Fatalf("largest layer holds %.2f of params; VGG-like skew requires > 0.6", frac)
	}
}

// TestBackwardOverwritesGrads pins the gradient contract: every Param.G is
// a view into the model's flat store at its Segment offset, and Backward
// assigns — a second Loss call on the same batch leaves the bits of one
// call, not their sum, with nothing clearing the store in between. Every
// net the CLI can name, plus a Residual over dense layers with a BatchNorm
// (parameters nested one level down), from a store poisoned with NaN so an
// element Backward only added to, or skipped, cannot hide.
func TestBackwardOverwritesGrads(t *testing.T) {
	image := []int{1, 16, 16}
	nets := map[string]ModelFactory{
		"residual": func(r *rng.RNG) *Model {
			return NewModel("residual", NewFlatten("flat"), NewDenseReLU("in", 256, 12, r),
				NewResidual("res", NewDense("res.fc", 12, 12, r), NewBatchNorm("res.bn", 12)),
				NewDense("out", 12, 5, r))
		},
	}
	for _, name := range []string{"mlp", "minicnn", "miniresnet", "miniresnetbn", "minivgg"} {
		f, err := FactoryByName(name, 5, image)
		if err != nil {
			t.Fatal(err)
		}
		nets[name] = f
	}
	for name, build := range nets {
		m := build(rng.New(8))
		g := m.Grads()
		if len(g) != m.NumParams() {
			t.Fatalf("%s: gradient store holds %d, model %d parameters", name, len(g), m.NumParams())
		}
		for i, seg := range m.Segments() {
			p := m.Params()[i]
			if len(p.G.Data) != seg.Len || p.G.Size() != seg.Len || &p.G.Data[0] != &g[seg.Off] {
				t.Fatalf("%s: %s.G is not the store's [%d:%d)", name, p.Name, seg.Off, seg.Off+seg.Len)
			}
		}
		r := rng.New(9)
		x := tensor.New(6, 1, 16, 16)
		x.RandNormal(r, 1)
		labels := []int{0, 1, 2, 3, 4, 0}
		for i := range g {
			g[i] = float32(math.NaN())
		}
		m.Loss(x, labels)
		once := append([]float32(nil), g...)
		for i, v := range once {
			if v != v {
				t.Fatalf("%s: gradient %d kept the poison: Backward did not assign it", name, i)
			}
		}
		m.Loss(x, labels)
		for i := range g {
			if math.Float32bits(g[i]) != math.Float32bits(once[i]) {
				t.Fatalf("%s: gradient %d is %v after a second pass on the same batch, %v after one", name, i, g[i], once[i])
			}
		}
	}
}

// sgdStep takes one plain SGD step, params -= lr*grads, through the flat
// parameter vector.
func sgdStep(m *Model, lr float32) {
	params := m.FlatParams(nil)
	tensor.AxpyF32(-lr, m.Grads(), params)
	m.SetFlatParams(params)
}

// TestModelOwnsFlatStores: every Param.W is a view of the model's flat
// parameter store, which Weights returns; the gradient store exists only
// once a pass needs it; and a model built with a nil RNG draws nothing —
// it allocates its parameter store and no more of model size — yet,
// loaded with a drawn model's parameters, evaluates to the same bits.
func TestModelOwnsFlatStores(t *testing.T) {
	image := []int{1, 16, 16}
	for _, name := range []string{"mlp", "minicnn", "miniresnet", "miniresnetbn", "minivgg"} {
		build, err := FactoryByName(name, 5, image)
		if err != nil {
			t.Fatal(err)
		}
		m := build(rng.New(8))
		w := m.Weights()
		for i, seg := range m.Segments() {
			p := m.Params()[i]
			if len(p.W.Data) != seg.Len || &p.W.Data[0] != &w[seg.Off] {
				t.Fatalf("%s: %s.W is not the store's [%d:%d)", name, p.Name, seg.Off, seg.Off+seg.Len)
			}
		}
		if m.grads != nil {
			t.Fatalf("%s: a model no pass has run holds a gradient store", name)
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bare := build(nil)
		runtime.ReadMemStats(&after)
		if got, vec := after.TotalAlloc-before.TotalAlloc, uint64(4*m.NumParams()); got > vec+64<<10 {
			t.Fatalf("%s: building without a draw allocated %d bytes, the parameter store is %d", name, got, vec)
		}
		bare.SetFlatParams(w)
		x := tensor.New(6, 1, 16, 16)
		x.RandNormal(rng.New(9), 1)
		labels := []int{0, 1, 2, 3, 4, 0}
		l1, a1 := m.Evaluate(x, labels)
		l2, a2 := bare.Evaluate(x, labels)
		if math.Float64bits(l1) != math.Float64bits(l2) || a1 != a2 {
			t.Fatalf("%s: the drawn model evaluates to %v/%v, the loaded bare one to %v/%v", name, l1, a1, l2, a2)
		}
	}
}

func TestDeterministicInitialization(t *testing.T) {
	m1 := NewMiniCNN(rng.New(11), 5)
	m2 := NewMiniCNN(rng.New(11), 5)
	f1, f2 := m1.FlatParams(nil), m2.FlatParams(nil)
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatal("same seed produced different initial weights")
		}
	}
}

func TestTrainingReducesLossMLP(t *testing.T) {
	// A sanity end-to-end: plain SGD on a separable 2-class problem.
	r := rng.New(12)
	m := NewMLP(r, 2, 16, 2)
	const n = 64
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		x.Data[i*2] = float32(r.NormFloat64())*0.3 + float32(cls*2-1)
		x.Data[i*2+1] = float32(r.NormFloat64()) * 0.3
	}
	first, _ := lossOnly(m, x, labels)
	for step := 0; step < 60; step++ {
		m.Loss(x, labels)
		sgdStep(m, 0.5)
	}
	last, acc := m.Evaluate(x, labels)
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if acc < 0.95 {
		t.Fatalf("accuracy %v on separable problem", acc)
	}
}

func TestResidualIdentityGradient(t *testing.T) {
	// With inner weights zeroed, a residual block is the identity and must
	// pass gradients through unchanged.
	r := rng.New(13)
	res := NewResidual("res",
		NewConv2D("c1", 2, 2, 3, 1, 1, r),
		NewReLU("rl"),
		NewConv2D("c2", 2, 2, 3, 1, 1, r),
	)
	for _, p := range res.Params() {
		clear(p.W.Data)
	}
	x := tensor.New(1, 2, 4, 4)
	x.RandNormal(r, 1)
	y := res.Forward(x, true)
	for i := range x.Data {
		if y.Data[i] != x.Data[i] {
			t.Fatal("zero-weight residual is not identity")
		}
	}
	dout := tensor.New(1, 2, 4, 4)
	dout.RandNormal(r, 1)
	dx := res.Backward(dout)
	for i := range dout.Data {
		if dx.Data[i] != dout.Data[i] {
			t.Fatal("zero-weight residual gradient is not identity")
		}
	}
}

func TestFactoryByName(t *testing.T) {
	image, features := []int{1, 16, 16}, []int{2}
	for _, name := range []string{"mlp", "minicnn", "miniresnet", "miniresnetbn", "minivgg"} {
		f, err := FactoryByName(name, 4, image)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := f(rng.New(1))
		if m.NumParams() == 0 {
			t.Fatalf("%s: no params", name)
		}
		// Only the MLP takes feature vectors; a conv net must say so here,
		// not panic on its first batch.
		if _, err := FactoryByName(name, 4, features); (err == nil) != (name == "mlp") {
			t.Fatalf("%s on %v samples: err = %v", name, features, err)
		}
	}
	// The feature-vector MLP is the model it always was: no Flatten in
	// front, the historical 2-32-32-classes stack.
	f, _ := FactoryByName("mlp", 4, features)
	if m := f(rng.New(1)); len(m.Layers) != 3 || m.NumParams() != NewMLP(rng.New(1), 2, 32, 32, 4).NumParams() {
		t.Fatalf("mlp on %v samples: %d layers, %d params", features, len(m.Layers), m.NumParams())
	}
	if _, err := FactoryByName("nope", 4, image); err == nil {
		t.Fatal("expected error for unknown model")
	}
}

func TestEvaluateMatchesLossForward(t *testing.T) {
	r := rng.New(14)
	m := NewMiniCNN(r, 3)
	x := tensor.New(3, 1, 16, 16)
	x.RandNormal(r, 1)
	labels := []int{0, 1, 2}
	l1, _ := lossOnly(m, x, labels)
	l2, _ := m.Evaluate(x, labels)
	if math.Abs(l1-l2) > 1e-6 {
		t.Fatalf("Evaluate loss %v != forward loss %v", l2, l1)
	}
}

func BenchmarkMiniCNNStep(b *testing.B) {
	r := rng.New(1)
	m := NewMiniCNN(r, 10)
	x := tensor.New(16, 1, 16, 16)
	x.RandNormal(r, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = i % 10
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Loss(x, labels)
	}
}

func BenchmarkMLPStep(b *testing.B) {
	r := rng.New(1)
	m := NewMLP(r, 2, 32, 32, 3)
	x := tensor.New(32, 2)
	x.RandNormal(r, 1)
	labels := make([]int, 32)
	for i := range labels {
		labels[i] = i % 3
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Loss(x, labels)
	}
}

// BenchmarkDenseStepBatch8 is one forward/backward pass of the benchmark's
// wide MLP (Flatten → 256 → 4096 → 512 → classes, 3.15 M parameters) at
// batch 8: the nn.fwdbwd_ms.widemlp rung. Every GEMM in it has 8 rows or
// k = 8, so the step is a handful of passes over 12.6 MB of weights and
// gradients; it must allocate nothing (at -cpu 1; above that the weight
// gradients fan out over row panels, a closure and goroutines per GEMM).
func BenchmarkDenseStepBatch8(b *testing.B) {
	r := rng.New(1)
	m := NewModel("widemlp", NewFlatten("flat"), NewDenseReLU("fc0", 256, 4096, r),
		NewDenseReLU("fc1", 4096, 512, r), NewDense("fc2", 512, 8, r))
	m.SetArena(tensor.NewArena())
	x := tensor.New(8, 1, 16, 16)
	x.RandNormal(r, 1)
	labels := []int{0, 1, 2, 3, 4, 5, 6, 7}
	m.Loss(x, labels) // size the layer buffers
	b.ReportAllocs()
	b.SetBytes(int64(4 * m.NumParams()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Loss(x, labels)
	}
}

func TestMiniResNetBNTrains(t *testing.T) {
	r := rng.New(77)
	m := NewMiniResNetBN(r, 4)
	if m.NumParams() == 0 {
		t.Fatal("no params")
	}
	x := tensor.New(8, 1, 16, 16)
	x.RandNormal(r, 1)
	labels := make([]int, 8)
	// Separable synthetic target: label by quadrant sign pattern baked into
	// the inputs so a small net can fit it.
	for i := range labels {
		labels[i] = i % 4
		for j := 0; j < 64; j++ {
			x.Data[i*256+labels[i]*64+j] += 2
		}
	}
	first, _ := lossOnly(m, x, labels)
	for step := 0; step < 80; step++ {
		m.Loss(x, labels)
		sgdStep(m, 0.05)
	}
	last, acc := m.Evaluate(x, labels)
	if last >= first {
		t.Fatalf("BN-ResNet loss did not decrease: %v -> %v", first, last)
	}
	if acc < 0.9 {
		t.Fatalf("BN-ResNet training accuracy %v", acc)
	}
}

func TestGradCheckMiniResNetBN(t *testing.T) {
	r := rng.New(78)
	m := NewMiniResNetBN(r, 3)
	x := tensor.New(4, 1, 16, 16)
	x.RandNormal(r, 1)
	gradCheck(t, m, x, []int{0, 1, 2, 0}, 30, 4e-2)
}

// fixedLayer stands in for a residual block's inner stack: it returns the
// same tensors every pass and costs nothing, so a residual block around it
// times the skip connection alone.
type fixedLayer struct{ y, dx *tensor.Tensor }

func (f fixedLayer) Name() string                                { return "fixed" }
func (f fixedLayer) Params() []*Param                            { return nil }
func (f fixedLayer) Forward(*tensor.Tensor, bool) *tensor.Tensor { return f.y }
func (f fixedLayer) Backward(*tensor.Tensor) *tensor.Tensor      { return f.dx }

// BenchmarkNonConvLayers times one forward and one backward pass of each
// layer that sits between MiniResNet's convolutions, at batch 16: the
// post-skip ReLU fused into the skip add, and both max-pools; the
// standalone ReLU is MiniResNetBN's. Bytes are what the layer's passes
// must move: ReLU reads x and writes y, then reads dout and y and writes
// dx (20 bytes an element); the pool moves 24 bytes an output each way;
// the residual reads x and F(x) and writes y, then reads dout and y and
// writes the mask, then reads the mask and F's gradient and writes dx (36
// bytes an element).
func BenchmarkNonConvLayers(b *testing.B) {
	r := rng.New(1)
	randn := func(shape ...int) *tensor.Tensor {
		t := tensor.New(shape...)
		t.RandNormal(r, 1)
		return t
	}
	for _, c := range []struct {
		name  string
		layer Layer
		in    []int
		bytes int
	}{
		{"relu/16x8x16x16", NewReLU("relu"), []int{16, 8, 16, 16}, 20},
		{"maxpool/16x8x16x16", NewMaxPool("pool1"), []int{16, 8, 16, 16}, 12},
		{"maxpool/16x8x8x8", NewMaxPool("pool2"), []int{16, 8, 8, 8}, 12},
		{"residual+relu/16x8x16x16", NewResidualReLU("res1",
			fixedLayer{randn(16, 8, 16, 16), randn(16, 8, 16, 16)}), []int{16, 8, 16, 16}, 36},
		{"residual+relu/16x8x8x8", NewResidualReLU("res2",
			fixedLayer{randn(16, 8, 8, 8), randn(16, 8, 8, 8)}), []int{16, 8, 8, 8}, 36},
	} {
		c.layer.(arenaUser).setArena(tensor.NewArena())
		x := randn(c.in...)
		dout := randn(c.layer.Forward(x, true).Shape...)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(c.bytes * x.Size()))
			for i := 0; i < b.N; i++ {
				c.layer.Forward(x, true)
				c.layer.Backward(dout)
			}
		})
	}
}
