package nn

import (
	"math"
	"testing"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// handDriven is a layer stack trained without Model.Loss: every layer's
// Backward runs, down to layer 0, with no input gradient skipped — what a
// model did before NewModel learned where the walk can stop.
type handDriven struct {
	layers []Layer
}

// disarmed rebuilds a model's layer stack as a hand-driven one, undoing the
// input-gradient skip NewModel armed (before any Forward sized buffers).
func disarmed(m *Model) handDriven {
	switch l := m.Layers[m.first].(type) {
	case *Conv2D:
		l.noDx = false
	case *Dense:
		l.noDx = false
	}
	return handDriven{m.Layers}
}

func (h handDriven) loss(x *tensor.Tensor, labels []int) float64 {
	a := x
	for _, l := range h.layers {
		a = l.Forward(a, true)
	}
	loss, _, d, _ := SoftmaxCrossEntropy(a, labels, nil)
	for i := len(h.layers) - 1; i >= 0; i-- {
		if d == nil {
			panic("nn: hand-driven layer " + h.layers[i+1].Name() + " returned no input gradient")
		}
		d = h.layers[i].Backward(d)
	}
	if d == nil || d.Size() != x.Size() {
		panic("nn: hand-driven walk did not reach the model input")
	}
	return loss
}

func (h handDriven) flatGrads() []float32 {
	var g []float32
	for _, l := range h.layers {
		for _, p := range l.Params() {
			g = append(g, p.G.Data...)
		}
	}
	return g
}

// TestDeadDxBitIdentical: stopping the backward walk at the lowest layer
// with parameters, and dropping that layer's input gradient, must not move a
// bit of any parameter gradient or of the loss — for every net the
// experiments train and for the benchmark's Flatten→Dense MLP, with and
// without an arena, across a batch-shape change.
func TestDeadDxBitIdentical(t *testing.T) {
	nets := map[string]func(r *rng.RNG) *Model{
		"miniresnet":   func(r *rng.RNG) *Model { return NewMiniResNet(r, 10) },
		"minivgg":      func(r *rng.RNG) *Model { return NewMiniVGG(r, 10) },
		"minicnn":      func(r *rng.RNG) *Model { return NewMiniCNN(r, 10) },
		"miniresnetbn": func(r *rng.RNG) *Model { return NewMiniResNetBN(r, 10) },
		"flatmlp": func(r *rng.RNG) *Model {
			return NewModel("flatmlp", NewFlatten("flat"),
				NewDenseReLU("fc0", 256, 40, r), NewDense("fc1", 40, 10, r))
		},
	}
	for name, build := range nets {
		for _, arena := range []bool{false, true} {
			m, ref := build(rng.New(7)), build(rng.New(7))
			if _, ok := m.Layers[m.first].(inputGradSkipper); !ok {
				t.Fatalf("%s: lowest parameter layer %s cannot skip its input gradient", name, m.Layers[m.first].Name())
			}
			if arena {
				m.SetArena(tensor.NewArena())
				ref.SetArena(tensor.NewArena())
			}
			hand := disarmed(ref)
			r := rng.New(11)
			for step, batch := range []int{6, 6, 3, 6} {
				x := tensor.New(batch, 1, 16, 16)
				x.RandNormal(r, 1)
				labels := make([]int, batch)
				for i := range labels {
					labels[i] = r.Intn(10)
				}
				got, _ := m.Loss(x, labels)
				want := hand.loss(x, labels)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s arena=%v step %d: loss %v, hand-driven %v", name, arena, step, got, want)
				}
				g, w := m.Grads(), hand.flatGrads()
				if len(g) != len(w) {
					t.Fatalf("%s: %d gradients, hand-driven %d", name, len(g), len(w))
				}
				for i := range g {
					if math.Float32bits(g[i]) != math.Float32bits(w[i]) {
						t.Fatalf("%s arena=%v step %d: grad %d = %x, hand-driven %x", name, arena, step, i,
							math.Float32bits(g[i]), math.Float32bits(w[i]))
					}
				}
			}
		}
	}
}

// TestDxSkipInvisibleToDirectLayerUse: a layer nobody handed to NewModel, and
// a parameter layer inside a Residual at the bottom of a model, still return
// their input gradient.
func TestDxSkipInvisibleToDirectLayerUse(t *testing.T) {
	r := rng.New(3)
	x := tensor.New(2, 1, 8, 8)
	x.RandNormal(r, 1)

	conv := NewConv2DReLU("c", 1, 8, 3, 1, 1, r)
	y := conv.Forward(x, true)
	if dx := conv.Backward(y); dx == nil || dx.Size() != x.Size() {
		t.Fatalf("direct Conv2D.Backward returned %v", dx)
	}
	fc := NewDense("d", 64, 5, r)
	flat := tensor.FromSlice(x.Data, 2, 64)
	if dx := fc.Backward(fc.Forward(flat, true)); dx == nil || dx.Size() != flat.Size() {
		t.Fatalf("direct Dense.Backward returned %v", dx)
	}

	inner := NewConv2D("res.c", 1, 1, 3, 1, 1, r)
	m := NewModel("resfirst", NewResidual("res", inner), NewFlatten("flat"), NewDense("fc", 64, 3, r))
	if inner.noDx {
		t.Fatal("NewModel armed a layer inside a Residual")
	}
	if _, ok := m.Layers[0].(inputGradSkipper); ok {
		t.Fatal("Residual must not skip: its skip connection needs the inner dx")
	}
	m.Loss(x, []int{0, 2})
}
