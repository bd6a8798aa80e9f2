package nn

import (
	"math"
	"testing"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// TestFusedReLUBitIdentical proves the epilogue-fusion contract at the layer
// level: a model built from NewDenseReLU/NewConv2DReLU must produce
// bit-identical activations, losses, gradients and post-update parameters to
// the same architecture built from separate Dense/Conv2D + ReLU layers,
// across several training steps (so the fused backward's mask-from-output
// recovery is exercised on evolving weights).
func TestFusedReLUBitIdentical(t *testing.T) {
	build := func(fused bool) *Model {
		r := rng.New(77)
		if fused {
			return NewModel("fused",
				NewConv2DReLU("conv1", 1, 4, 3, 1, 1, r),
				NewMaxPool("pool1"),
				NewFlatten("flat"),
				NewDenseReLU("fc1", 4*8*8, 19, r), // odd width: col remainder 3
				NewDense("fc2", 19, 3, r),
			)
		}
		return NewModel("unfused",
			NewConv2D("conv1", 1, 4, 3, 1, 1, r),
			NewReLU("relu1"),
			NewMaxPool("pool1"),
			NewFlatten("flat"),
			NewDense("fc1", 4*8*8, 19, r),
			NewReLU("relu3"),
			NewDense("fc2", 19, 3, r),
		)
	}
	fused, unfused := build(true), build(false)

	fp := fused.FlatParams(nil)
	up := unfused.FlatParams(nil)
	if len(fp) != len(up) {
		t.Fatalf("parameter counts differ: fused %d, unfused %d", len(fp), len(up))
	}
	for i := range fp {
		if math.Float32bits(fp[i]) != math.Float32bits(up[i]) {
			t.Fatalf("init param %d differs — fused constructors changed RNG draws", i)
		}
	}

	r := rng.New(5)
	x := tensor.New(3, 1, 16, 16)
	labels := []int{0, 2, 1}
	for step := 0; step < 4; step++ {
		x.RandNormal(r, 1)

		lossF, _ := fused.Loss(x, labels)
		lossU, _ := unfused.Loss(x, labels)
		if math.Float64bits(lossF) != math.Float64bits(lossU) {
			t.Fatalf("step %d: loss differs fused=%v unfused=%v", step, lossF, lossU)
		}

		gf := fused.Grads()
		gu := unfused.Grads()
		for i := range gf {
			if math.Float32bits(gf[i]) != math.Float32bits(gu[i]) {
				t.Fatalf("step %d: grad %d differs fused=%x unfused=%x",
					step, i, math.Float32bits(gf[i]), math.Float32bits(gu[i]))
			}
		}

		// Identical SGD step on both so later iterations see new masks.
		fp = fused.FlatParams(fp)
		up = unfused.FlatParams(up)
		for i := range fp {
			fp[i] -= 0.05 * gf[i]
			up[i] -= 0.05 * gu[i]
		}
		fused.SetFlatParams(fp)
		unfused.SetFlatParams(up)
	}
}

// TestReLUSpecialValues: the standalone ReLU and the three fused forms
// clamp the same way — +0 for NaN, −0, negatives and −Inf, the input's own
// bits for everything > 0, denormals and +Inf included — and mask the
// gradient the same way: its own bits where the input was > 0, NaN payloads
// and −0 included, +0 elsewhere. Dense and Conv2D see the specials as
// pre-activations through a weight of 1; the residual adds them to F(x) = 0
// (F' = 0), and x + 0 differs from x only at −0, which the clamp maps to +0
// either way.
func TestReLUSpecialValues(t *testing.T) {
	bits := []uint32{
		0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x007fffff, 0x807fffff,
		0x7f800000, 0xff800000, 0x7fc00000, 0xffc00000, 0x7fc12345, 0x7f800001,
		0x3f800000, 0xbf800000, 0x7f7fffff, 0xff7fffff,
	}
	// Three rounds: the first 32 elements take the vector kernels, the
	// rest the scalar loops; each round pairs every input with another
	// gradient.
	n := 3 * len(bits)
	x, dout := make([]float32, n), make([]float32, n)
	for i := range x {
		x[i] = math.Float32frombits(bits[i%len(bits)])
		dout[i] = math.Float32frombits(bits[(i+5*(i/len(bits))+1)%len(bits)])
	}
	want, wantGrad := make([]float32, n), make([]float32, n)
	for i, v := range x {
		if v > 0 {
			want[i], wantGrad[i] = v, dout[i]
		}
	}

	relu := NewReLU("relu")
	dense := NewDenseReLU("dense", 1, 1, rng.New(1))
	dense.w.W.Data[0] = 1
	conv := NewConv2DReLU("conv", 1, 1, 1, 1, 0, rng.New(1))
	conv.w.W.Data[0] = 1
	zero := fixedLayer{tensor.New(1, n), tensor.New(1, n)}
	res := NewResidualReLU("res", zero)
	unfused := []Layer{NewResidual("res", zero), NewReLU("res.out")}

	type run struct {
		name      string
		y, masked []float32
	}
	fwd := func(l Layer, shape ...int) *tensor.Tensor {
		return l.Forward(tensor.FromSlice(append([]float32(nil), x...), shape...), true)
	}
	back := func(l Layer, shape ...int) *tensor.Tensor {
		return l.Backward(tensor.FromSlice(append([]float32(nil), dout...), shape...))
	}
	var runs []run
	y := fwd(relu, 1, n)
	runs = append(runs, run{"ReLU", y.Data, back(relu, 1, n).Data})
	y = fwd(dense, n, 1)
	back(dense, n, 1)
	runs = append(runs, run{"DenseReLU", y.Data, dense.dy.Data})
	y = fwd(conv, 1, 1, 1, n)
	back(conv, 1, 1, 1, n)
	runs = append(runs, run{"Conv2DReLU", y.Data, conv.dy.Data})
	y = fwd(res, 1, n)
	resDx := back(res, 1, n).Data
	runs = append(runs, run{"ResidualReLU", y.Data, res.dy.Data})

	for _, r := range runs {
		for i := range want {
			if g, w := math.Float32bits(r.y[i]), math.Float32bits(want[i]); g != w {
				t.Errorf("%s forward of %08x = %08x, want %08x", r.name, math.Float32bits(x[i]), g, w)
			}
			if g, w := math.Float32bits(r.masked[i]), math.Float32bits(wantGrad[i]); g != w {
				t.Errorf("%s backward of %08x at input %08x = %08x, want %08x",
					r.name, math.Float32bits(dout[i]), math.Float32bits(x[i]), g, w)
			}
		}
	}
	// The fused residual against Residual + ReLU: the same input gradient.
	h := fwd(unfused[0], 1, n)
	unfused[1].Forward(h, true)
	d := unfused[0].Backward(unfused[1].Backward(tensor.FromSlice(append([]float32(nil), dout...), 1, n)))
	for i := range resDx {
		if g, w := math.Float32bits(resDx[i]), math.Float32bits(d.Data[i]); g != w {
			t.Errorf("ResidualReLU dx[%d] = %08x, Residual + ReLU %08x", i, g, w)
		}
	}
}
