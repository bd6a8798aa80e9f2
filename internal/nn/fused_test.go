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
