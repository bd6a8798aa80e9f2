package nn

import (
	"math"
	"testing"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// TestConvResizesOnGeometry: two inputs of one batch and one element count
// but different extents — [B, C, 16, 16] and [B, C, 8, 32] — have different
// output sizes under stride 2 or pad 0, so a layer that has seen one must
// re-size for the other (keying on batch and element count alone reused the
// first's buffers and died in a slice bound). Both orders, forward and
// backward, against a layer that has seen nothing else.
func TestConvResizesOnGeometry(t *testing.T) {
	shapes := [][]int{{3, 4, 16, 16}, {3, 4, 8, 32}}
	for _, g := range []struct{ k, stride, pad int }{{3, 2, 1}, {3, 1, 0}, {3, 1, 1}, {5, 2, 0}} {
		for _, relu := range []bool{false, true} {
			for first := range shapes {
				build := func() *Conv2D {
					r := rng.New(17)
					if relu {
						return NewConv2DReLU("c", 4, 9, g.k, g.stride, g.pad, r)
					}
					return NewConv2D("c", 4, 9, g.k, g.stride, g.pad, r)
				}
				layer := build()
				layer.setArena(tensor.NewArena())
				r := rng.New(19)
				for _, shape := range [][]int{shapes[first], shapes[1-first], shapes[first]} {
					x := tensor.New(shape...)
					x.RandNormal(r, 1)
					fresh := build()
					y, wantY := layer.Forward(x, true), fresh.Forward(x, true)
					dout := tensor.New(wantY.Shape...)
					dout.RandNormal(r, 1)
					dx, wantDx := layer.Backward(dout), fresh.Backward(dout)
					for _, c := range []struct {
						name      string
						got, want []float32
					}{
						{"y", y.Data, wantY.Data}, {"dx", dx.Data, wantDx.Data},
						{"dw", layer.w.G.Data, fresh.w.G.Data}, {"db", layer.b.G.Data, fresh.b.G.Data},
					} {
						if len(c.got) != len(c.want) {
							t.Fatalf("k=%d stride=%d pad=%d relu=%v input %v: %s has %d elements, fresh layer %d",
								g.k, g.stride, g.pad, relu, shape, c.name, len(c.got), len(c.want))
						}
						for i := range c.want {
							if math.Float32bits(c.got[i]) != math.Float32bits(c.want[i]) {
								t.Fatalf("k=%d stride=%d pad=%d relu=%v input %v: %s[%d] = %v, fresh layer %v",
									g.k, g.stride, g.pad, relu, shape, c.name, i, c.got[i], c.want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestConvStepAllocatesNothing: a steady-state training step of every conv
// net on one core makes no allocation (the benchmark's nn.step_allocs).
func TestConvStepAllocatesNothing(t *testing.T) {
	for _, name := range []string{"minicnn", "miniresnet", "miniresnetbn", "minivgg"} {
		f, err := FactoryByName(name, 10, imageSample)
		if err != nil {
			t.Fatal(err)
		}
		m := f(rng.New(5))
		m.SetArena(tensor.NewArena())
		x := tensor.New(16, 1, 16, 16)
		x.RandNormal(rng.New(6), 1)
		labels := make([]int, 16)
		m.Loss(x, labels)
		if n := testing.AllocsPerRun(3, func() { m.Loss(x, labels) }); n != 0 {
			t.Errorf("%s: %v allocations per step, want 0", name, n)
		}
	}
}
