package nn

import (
	"math"
	"testing"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

func TestBatchNormNormalizes(t *testing.T) {
	bn := NewBatchNorm("bn", 2)
	x := tensor.New(8, 2)
	r := rng.New(1)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64()*3 + 5)
	}
	y := bn.Forward(x, true)
	// Each channel of the output must have ~zero mean and ~unit variance.
	for c := 0; c < 2; c++ {
		var sum, sq float64
		for b := 0; b < 8; b++ {
			v := float64(y.Data[b*2+c])
			sum += v
			sq += v * v
		}
		mean := sum / 8
		variance := sq/8 - mean*mean
		if math.Abs(mean) > 1e-5 {
			t.Fatalf("channel %d mean %v", c, mean)
		}
		if math.Abs(variance-1) > 1e-3 {
			t.Fatalf("channel %d var %v", c, variance)
		}
	}
}

func TestBatchNorm4DShapes(t *testing.T) {
	bn := NewBatchNorm("bn", 3)
	x := tensor.New(2, 3, 4, 4)
	r := rng.New(2)
	x.RandNormal(r, 2)
	y := bn.Forward(x, true)
	if y.Shape[0] != 2 || y.Shape[1] != 3 || y.Shape[2] != 4 || y.Shape[3] != 4 {
		t.Fatalf("shape %v", y.Shape)
	}
}

func TestBatchNormEvalUsesRunningStats(t *testing.T) {
	bn := NewBatchNorm("bn", 1)
	r := rng.New(3)
	// Train on data with mean 10: running stats drift toward it.
	for step := 0; step < 200; step++ {
		x := tensor.New(16, 1)
		for i := range x.Data {
			x.Data[i] = float32(r.NormFloat64() + 10)
		}
		bn.Forward(x, true)
	}
	// Eval on the same distribution must normalize toward zero mean.
	x := tensor.New(16, 1)
	for i := range x.Data {
		x.Data[i] = float32(r.NormFloat64() + 10)
	}
	y := bn.Forward(x, false)
	var sum float64
	for _, v := range y.Data {
		sum += float64(v)
	}
	if m := sum / 16; math.Abs(m) > 0.5 {
		t.Fatalf("eval mean %v, want ~0 via running stats", m)
	}
}

func TestGradCheckBatchNormCNN(t *testing.T) {
	r := rng.New(4)
	m := NewModel("bncnn",
		NewConv2D("c1", 1, 4, 3, 1, 1, r),
		NewBatchNorm("bn1", 4),
		NewReLU("r1"),
		NewFlatten("f"),
		NewDense("fc", 4*8*8, 3, r),
	)
	x := tensor.New(3, 1, 8, 8)
	x.RandNormal(r, 1)
	gradCheck(t, m, x, []int{0, 1, 2}, 40, 3e-2)
}

func TestGradCheckGlobalAvgPool(t *testing.T) {
	r := rng.New(5)
	m := NewModel("gapnet",
		NewConv2D("c1", 1, 4, 3, 1, 1, r),
		NewReLU("r1"),
		NewGlobalAvgPool("gap"),
		NewDense("fc", 4, 3, r),
	)
	x := tensor.New(2, 1, 6, 6)
	x.RandNormal(r, 1)
	gradCheck(t, m, x, []int{0, 2}, 40, 2e-2)
}

func TestGlobalAvgPoolValues(t *testing.T) {
	gap := NewGlobalAvgPool("gap")
	x := tensor.FromSlice([]float32{
		1, 2, 3, 4, // channel 0
		10, 20, 30, 40, // channel 1
	}, 1, 2, 2, 2)
	y := gap.Forward(x, true)
	if y.At(0, 0) != 2.5 || y.At(0, 1) != 25 {
		t.Fatalf("gap = %v", y.Data)
	}
	dout := tensor.FromSlice([]float32{4, 8}, 1, 2)
	dx := gap.Backward(dout)
	if dx.Data[0] != 1 || dx.Data[4] != 2 {
		t.Fatalf("gap backward = %v", dx.Data)
	}
}

func TestBatchNormTrainingImprovesDeepNet(t *testing.T) {
	// A BN-equipped model must train on the shapes-like task; this guards
	// the full forward/backward integration, not just the gradcheck.
	r := rng.New(8)
	m := NewModel("bnnet",
		NewDense("fc1", 2, 32, r),
		NewBatchNorm("bn", 32),
		NewReLU("r1"),
		NewDense("fc2", 32, 2, r),
	)
	const n = 128
	x := tensor.New(n, 2)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		cls := i % 2
		labels[i] = cls
		x.Data[i*2] = float32(r.NormFloat64())*0.4 + float32(cls*2-1)
		x.Data[i*2+1] = float32(r.NormFloat64()) * 0.4
	}
	for step := 0; step < 80; step++ {
		m.Loss(x, labels)
		sgdStep(m, 0.1)
	}
	_, acc := m.Evaluate(x, labels)
	if acc < 0.95 {
		t.Fatalf("BN net accuracy %v", acc)
	}
}
