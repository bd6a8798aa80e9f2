// Package nn is a small from-scratch neural-network stack: layers with
// explicit forward/backward passes, models assembled from layers, and a
// softmax cross-entropy loss.
//
// It exists so the distributed-training algorithms in internal/core exchange
// *real* gradients with real SGD noise — the property the paper's accuracy
// experiments depend on — while staying cheap enough to run dozens of
// multi-worker configurations on a laptop.
//
// Parameters are exposed in two forms: per-layer tensors (used by the math)
// and a flat []float32 vector (used by every communication/aggregation code
// path, and by layer-wise parameter sharding, which needs the segment
// boundaries). The two forms are one piece of memory: a Model owns a single
// flat parameter store and a single flat gradient store, and every Param.W
// and Param.G is a view into them at the parameter's Segment offset. The
// vector a collective ships, a checkpoint writes and the optimizer steps is
// the one the layers compute with, and the buffer a backward pass writes is
// the buffer a collective reduces — no flatten copy sits between them.
// Backward OVERWRITES parameter gradients (each pass leaves exactly its own
// batch's gradient), so nothing has to clear the store between steps
// either; a caller that wants a sum over micro-batches adds Grads() into a
// buffer of its own. The gradient store is allocated by the first Loss or
// Grads call, so a model that is only evaluated, or only carries parameters
// (a parameter server's initial vector), never holds one.
package nn

import (
	"fmt"
	"slices"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// Param is one learnable tensor together with its gradient. A layer's
// constructor gives W storage of its own and G a shape only; NewModel
// re-homes W into the model's flat parameter store and G into its gradient
// store, and a layer driven directly gives G storage at its first Backward.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

// newParam pairs w with a gradient of its shape that has no storage yet.
func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: &tensor.Tensor{Shape: slices.Clone(w.Shape)}}
}

// grad returns p's gradient tensor, giving it storage of its own when no
// model has homed it (a layer driven directly).
func (p *Param) grad() *tensor.Tensor {
	if p.G.Data == nil {
		p.G.Data = make([]float32, p.G.Size())
	}
	return p.G
}

// initWeights returns a weight tensor of the given shape drawn from
// N(0, std²) with r, or — with a nil r — one with no storage yet: its model's
// store holds zeros there until the caller sets the parameters.
func initWeights(r *rng.RNG, std float64, shape ...int) *tensor.Tensor {
	if r == nil {
		return &tensor.Tensor{Shape: shape}
	}
	w := tensor.New(shape...)
	w.RandNormal(r, std)
	return w
}

// Layer is a differentiable module. Forward must cache whatever Backward
// needs; Backward receives dL/d(output) and returns dL/d(input), and ASSIGNS
// dL/d(params) for this batch to the layer's gradient tensors: whatever they
// held is overwritten, every element, so they never need clearing. (A GEMM
// writes its output anyway; adding it into a cleared accumulator cost three
// more passes over a dense layer's weights' worth of memory per step.)
type Layer interface {
	// Name identifies the layer for sharding and reporting.
	Name() string
	// Forward computes the layer output for a batch. train distinguishes
	// training from evaluation for layers that behave differently.
	Forward(x *tensor.Tensor, train bool) *tensor.Tensor
	// Backward propagates gradients; must be called after Forward.
	Backward(dout *tensor.Tensor) *tensor.Tensor
	// Params returns the learnable parameters (possibly empty).
	Params() []*Param
}

// Segment describes a contiguous range of the model's flat parameter vector
// belonging to one named tensor. Sharding assigns segments to PS shards.
type Segment struct {
	Name string
	Off  int
	Len  int
}

// Model is an ordered stack of layers with a softmax cross-entropy head.
type Model struct {
	Name   string
	Layers []Layer

	params []*Param
	segs   []Segment
	size   int
	// weights and grads are the flat parameter and gradient stores:
	// params[i].W views weights[segs[i].Off:][:segs[i].Len] and params[i].G
	// the same window of grads, which is nil until a pass needs it.
	weights []float32
	grads   []float32

	// first indexes the lowest layer that holds parameters: the backward
	// walk stops there, since no gradient below it is ever read.
	first int

	// arena recycles layer scratch buffers across batch-shape changes
	// (nil = plain allocation).
	arena *tensor.Arena

	// caches reused across Loss calls
	probs *tensor.Tensor
}

// inputGradSkipper is implemented by layers that can leave out dL/d(input)
// — its GEMM, its scatter and the buffers behind them — when nothing below
// consumes it. Only NewModel arms it, and only on the layer where the
// backward walk ends; a layer driven directly, or inside a Residual, always
// returns its input gradient.
type inputGradSkipper interface {
	skipInputGrad()
}

// arenaUser is implemented by layers whose scratch buffers (activations,
// gradients, bordered images) can be drawn from a shared arena.
type arenaUser interface {
	setArena(a *tensor.Arena)
}

// SetArena routes all layer scratch allocation through a. Buffers released
// when the batch shape changes (e.g. alternating training and evaluation
// batches) are recycled, making steady-state training steps allocation-free.
// Call before the first Forward; a nil arena restores plain allocation.
func (m *Model) SetArena(a *tensor.Arena) {
	m.arena = a
	for _, l := range m.Layers {
		if u, ok := l.(arenaUser); ok {
			u.setArena(a)
		}
	}
}

// NewModel assembles layers into a model, computes flat-vector segment
// offsets and moves every parameter tensor into the flat store (the layer's
// own initial storage is garbage from then on). The lowest layer holding
// parameters (a conv stem, or the first Dense behind a Flatten) is told to
// skip its input gradient: the model input needs none, and Loss ends its
// backward walk at that layer.
func NewModel(name string, layers ...Layer) *Model {
	m := &Model{Name: name, Layers: layers}
	off := 0
	for i, l := range layers {
		ps := l.Params()
		if len(ps) > 0 && len(m.params) == 0 {
			m.first = i
			if s, ok := l.(inputGradSkipper); ok {
				s.skipInputGrad()
			}
		}
		for _, p := range ps {
			m.params = append(m.params, p)
			n := p.W.Size()
			m.segs = append(m.segs, Segment{Name: p.Name, Off: off, Len: n})
			off += n
		}
	}
	m.size = off
	m.weights = make([]float32, off)
	for i, p := range m.params {
		w := m.window(m.weights, i)
		copy(w, p.W.Data)
		p.W.Data = w
	}
	return m
}

// window is parameter i's segment of the flat store v.
func (m *Model) window(v []float32, i int) []float32 {
	return v[m.segs[i].Off:][:m.segs[i].Len]
}

// NumParams returns the total number of learnable scalars.
func (m *Model) NumParams() int { return m.size }

// Params returns all learnable parameters in flat-vector order.
func (m *Model) Params() []*Param { return m.params }

// Segments returns the layer-wise layout of the flat parameter vector.
func (m *Model) Segments() []Segment { return append([]Segment(nil), m.segs...) }

// Weights returns the flat parameter store itself, not a copy: the
// parameters in flat-vector order, which the layers compute with. Callers
// may step, merge or overwrite it in place, and ship or checkpoint it where
// it lies.
func (m *Model) Weights() []float32 { return m.weights }

// FlatParams copies the parameters into dst (allocated if nil) and returns
// it: a snapshot that later steps do not move. Nothing in the program needs
// the copy — Weights is the vector — but bench/, which a change that claims
// a gain may not edit, times its single-worker baseline through this and
// SetFlatParams.
func (m *Model) FlatParams(dst []float32) []float32 {
	dst = m.ensure(dst)
	copy(dst, m.weights)
	return dst
}

// SetFlatParams overwrites the parameters from src.
func (m *Model) SetFlatParams(src []float32) {
	if len(src) != m.size {
		panic(fmt.Sprintf("nn: SetFlatParams length %d, want %d", len(src), m.size))
	}
	copy(m.weights, src)
}

// Grads returns the flat gradient store itself, not a copy: the last Loss
// call's gradient in flat-vector order, valid until the next one overwrites
// it. Callers may reduce into it in place (the live ring does). Before the
// first Loss call it holds zeros.
func (m *Model) Grads() []float32 {
	if m.grads == nil {
		m.grads = make([]float32, m.size)
		for i, p := range m.params {
			p.G.Data = m.window(m.grads, i)
		}
	}
	return m.grads
}

// FlatGrads copies the gradients into dst (allocated if nil). Nothing in
// the program needs the copy — Grads is the vector — but bench/, which a PR
// that claims a gain may not edit, times its single-worker baseline through
// this and ZeroGrads.
func (m *Model) FlatGrads(dst []float32) []float32 {
	dst = m.ensure(dst)
	copy(dst, m.Grads())
	return dst
}

// ZeroGrads clears the gradient store. Loss overwrites it, so no training
// loop calls this; see FlatGrads.
func (m *Model) ZeroGrads() { clear(m.Grads()) }

func (m *Model) ensure(dst []float32) []float32 {
	if dst == nil {
		return make([]float32, m.size)
	}
	if len(dst) != m.size {
		panic(fmt.Sprintf("nn: flat buffer length %d, want %d", len(dst), m.size))
	}
	return dst
}

// Forward runs the layer stack and returns logits of shape [B, classes].
func (m *Model) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := x
	for _, l := range m.Layers {
		h = l.Forward(h, train)
	}
	return h
}

// Loss runs a full forward/backward pass for a batch: it computes the mean
// softmax cross-entropy over (x, labels), leaves the batch's parameter
// gradients in Grads() (overwriting the previous call's), and returns the
// loss value and the number of correct argmax predictions.
func (m *Model) Loss(x *tensor.Tensor, labels []int) (loss float64, correct int) {
	m.Grads() // homes every Param.G before Backward writes it
	logits := m.Forward(x, true)
	m.ensureProbs(logits)
	var dlogits *tensor.Tensor
	loss, correct, dlogits, m.probs = SoftmaxCrossEntropy(logits, labels, m.probs)
	d := dlogits
	for i := len(m.Layers) - 1; i >= m.first; i-- {
		d = m.Layers[i].Backward(d)
	}
	return loss, correct
}

// Evaluate computes mean loss and accuracy over a dataset slice without
// touching gradients.
func (m *Model) Evaluate(x *tensor.Tensor, labels []int) (loss float64, acc float64) {
	logits := m.Forward(x, false)
	m.ensureProbs(logits)
	l, correct, _, probs := SoftmaxCrossEntropy(logits, labels, m.probs)
	m.probs = probs
	return l, float64(correct) / float64(len(labels))
}

// ensureProbs recycles the softmax scratch through the arena when the batch
// shape changes; SoftmaxCrossEntropy fully overwrites it.
func (m *Model) ensureProbs(logits *tensor.Tensor) {
	b, c := logits.Shape[0], logits.Shape[1]
	if m.probs == nil || m.probs.Shape[0] != b || m.probs.Shape[1] != c {
		m.arena.PutTensor(m.probs)
		m.probs = m.arena.GetTensor(b, c)
	}
}
