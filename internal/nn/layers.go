package nn

import (
	"fmt"
	"math"
	"slices"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b, with x of shape [B, In].
// W is stored [Out, In]. With fuseReLU set, the ReLU activation runs inside
// the GEMM epilogue (MatMulBiasReLU) instead of as a separate layer — same
// bits, one less pass over the activations. The backward mask is recovered
// from the output itself: out > 0 iff the pre-activation was > 0 (anything
// else, including NaN, was clamped to 0), so no mask storage is needed.
type Dense struct {
	name     string
	In, Out  int
	fuseReLU bool
	noDx     bool // Backward returns nil instead of dL/dx (see inputGradSkipper)
	w, b     *Param
	x        *tensor.Tensor // cached input
	y        *tensor.Tensor
	dx       *tensor.Tensor
	dy       *tensor.Tensor // ReLU-masked dout (fused only)
	lastSize int
	arena    *tensor.Arena
}

// NewDense creates a dense layer with He-initialized weights drawn from r;
// a nil r draws nothing and leaves the weights for the caller to set (see
// ModelFactory).
func NewDense(name string, in, out int, r *rng.RNG) *Dense {
	d := &Dense{name: name, In: in, Out: out}
	d.w = newParam(name+".w", initWeights(r, math.Sqrt(2/float64(in)), out, in))
	d.b = newParam(name+".b", tensor.New(out))
	return d
}

// NewDenseReLU creates a dense layer with the ReLU activation fused into the
// GEMM epilogue. Bit-identical to NewDense followed by NewReLU (same RNG
// draws, same parameter names, same forward/backward values).
func NewDenseReLU(name string, in, out int, r *rng.RNG) *Dense {
	d := NewDense(name, in, out, r)
	d.fuseReLU = true
	return d
}

func (d *Dense) Name() string             { return d.name }
func (d *Dense) Params() []*Param         { return []*Param{d.w, d.b} }
func (d *Dense) setArena(a *tensor.Arena) { d.arena = a }
func (d *Dense) skipInputGrad()           { d.noDx = true }

func (d *Dense) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 2 || x.Shape[1] != d.In {
		panic(fmt.Sprintf("nn: dense %s got input %v, want [B %d]", d.name, x.Shape, d.In))
	}
	b := x.Shape[0]
	if d.y == nil || d.lastSize != b {
		// y, dy and dx are fully overwritten below, so recycled (dirty)
		// arena buffers are safe.
		d.arena.PutTensor(d.y)
		d.arena.PutTensor(d.dx)
		d.arena.PutTensor(d.dy)
		d.y = d.arena.GetTensor(b, d.Out)
		d.dx = nil
		if !d.noDx {
			d.dx = d.arena.GetTensor(b, d.In)
		}
		d.dy = nil
		if d.fuseReLU {
			d.dy = d.arena.GetTensor(b, d.Out)
		}
		d.lastSize = b
	}
	d.x = x
	if d.fuseReLU {
		tensor.MatMulBiasReLU(x, d.w.W, d.y, d.b.W.Data)
	} else {
		tensor.MatMulBias(x, d.w.W, d.y, d.b.W.Data)
	}
	return d.y
}

func (d *Dense) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if d.fuseReLU {
		// Recover the ReLU mask from the fused output: out > 0 iff the
		// pre-activation was kept.
		tensor.ReLUMaskF32(d.dy.Data, dout.Data, d.y.Data)
		dout = d.dy
	}
	b := dout.Shape[0]
	// dW = doutᵀ·x, straight into the gradient store.
	tensor.MatMulTransA(dout, d.x, d.w.grad())
	// db = column sums of dout, from zero in ascending row order.
	gd, dd := d.b.grad().Data, dout.Data
	clear(gd)
	for i := 0; i < b; i++ {
		row := dd[i*d.Out : i*d.Out+d.Out]
		for j, v := range row {
			gd[j] += v
		}
	}
	if d.noDx {
		return nil
	}
	// dx = dout·W
	tensor.MatMul(dout, d.w.W, d.dx)
	return d.dx
}

// ReLU keeps every element x > 0 and maps the rest to +0: a NaN, −0 or
// negative input gives +0 (Go's max(0, x) would return the NaN). The fused
// forms (NewDenseReLU, NewConv2DReLU, NewResidualReLU) apply the same
// clamp. Backward passes dout where the output is > 0 — exactly where the
// input was — and +0 elsewhere, so the output is the only mask.
type ReLU struct {
	name  string
	y     *tensor.Tensor
	dx    *tensor.Tensor
	arena *tensor.Arena
}

// NewReLU creates a ReLU activation layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

func (l *ReLU) Name() string             { return l.name }
func (l *ReLU) Params() []*Param         { return nil }
func (l *ReLU) setArena(a *tensor.Arena) { l.arena = a }

func (l *ReLU) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if l.y == nil || l.y.Size() != x.Size() {
		l.arena.PutTensor(l.y)
		l.arena.PutTensor(l.dx)
		l.y = l.arena.GetTensor(x.Shape...)
		l.dx = l.arena.GetTensor(x.Shape...)
	}
	l.y.Shape = append(l.y.Shape[:0], x.Shape...)
	l.dx.Shape = append(l.dx.Shape[:0], x.Shape...)
	tensor.ReLUMaskF32(l.y.Data, x.Data, x.Data)
	return l.y
}

func (l *ReLU) Backward(dout *tensor.Tensor) *tensor.Tensor {
	tensor.ReLUMaskF32(l.dx.Data, dout.Data, l.y.Data)
	return l.dx
}

// Conv2D is a 2-D convolution over [B, C, H, W] inputs. Weights are stored
// [OutC, InC·kh·kw]. The arithmetic is tensor.Conv's: forward, weight
// gradient and input gradient computed in image space over a zero-bordered
// copy of the input, bit for bit what lowering the batch to one patch-row
// matrix and three GEMMs gave, without the matrix or the transposes around
// the GEMMs. With fuseReLU the activation is the forward pass's epilogue, and
// the backward mask is recovered from the output as in Dense.
type Conv2D struct {
	name           string
	InC, OutC      int
	K, Stride, Pad int
	fuseReLU       bool
	noDx           bool // Backward returns nil instead of dL/dx (see inputGradSkipper)
	w, b           *Param
	conv           *tensor.Conv // sized for the last input shape, with its scratch
	y, dx          *tensor.Tensor
	dy             *tensor.Tensor // ReLU-masked dout (fused only)
	arena          *tensor.Arena
}

// NewConv2D creates a convolution layer with He-initialized weights drawn
// from r; a nil r draws nothing (see NewDense).
func NewConv2D(name string, inC, outC, k, stride, pad int, r *rng.RNG) *Conv2D {
	c := &Conv2D{name: name, InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad}
	fanIn := inC * k * k
	c.w = newParam(name+".w", initWeights(r, math.Sqrt(2/float64(fanIn)), outC, fanIn))
	c.b = newParam(name+".b", tensor.New(outC))
	return c
}

// NewConv2DReLU creates a convolution layer with the ReLU activation fused
// into the forward epilogue. Bit-identical to NewConv2D followed by NewReLU:
// bias-add and clamp are the last two operations on each output element
// either way.
func NewConv2DReLU(name string, inC, outC, k, stride, pad int, r *rng.RNG) *Conv2D {
	c := NewConv2D(name, inC, outC, k, stride, pad, r)
	c.fuseReLU = true
	return c
}

func (c *Conv2D) Name() string             { return c.name }
func (c *Conv2D) Params() []*Param         { return []*Param{c.w, c.b} }
func (c *Conv2D) setArena(a *tensor.Arena) { c.arena = a }
func (c *Conv2D) skipInputGrad()           { c.noDx = true }

// setup sizes the layer for x's batch and image extents; every other input
// of the geometry is fixed at construction.
func (c *Conv2D) setup(x *tensor.Tensor) {
	b, h, w := x.Shape[0], x.Shape[2], x.Shape[3]
	if cv := c.conv; cv != nil {
		if cv.B == b && cv.H == h && cv.W == w {
			return
		}
		cv.Release()
	}
	// y, dy and dx are fully overwritten each pass, so dirty arena buffers
	// are safe; tensor.Conv zeroes what it needs zero.
	c.arena.PutTensor(c.y)
	c.arena.PutTensor(c.dx)
	c.arena.PutTensor(c.dy)
	c.conv = tensor.NewConv(c.arena, b, c.InC, h, w, c.OutC, c.K, c.Stride, c.Pad, !c.noDx)
	c.y = c.arena.GetTensor(b, c.OutC, c.conv.OutH, c.conv.OutW)
	c.dx, c.dy = nil, nil
	if !c.noDx {
		c.dx = c.arena.GetTensor(x.Shape...)
	}
	if c.fuseReLU {
		c.dy = c.arena.GetTensor(c.y.Shape...)
	}
}

func (c *Conv2D) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[1] != c.InC {
		panic(fmt.Sprintf("nn: conv %s got input %v, want [B %d H W]", c.name, x.Shape, c.InC))
	}
	c.setup(x)
	c.conv.Forward(x.Data, c.w.W.Data, c.b.W.Data, c.fuseReLU, c.y.Data)
	return c.y
}

func (c *Conv2D) Backward(dout *tensor.Tensor) *tensor.Tensor {
	dd := dout.Data
	if c.fuseReLU {
		// c.y holds the post-ReLU activations: > 0 iff the pre-activation
		// was kept.
		tensor.ReLUMaskF32(c.dy.Data, dd, c.y.Data)
		dd = c.dy.Data
	}
	// db = per-channel sums of the (masked) gradient from zero, every
	// channel in ascending (sample, position) order.
	nCols := c.conv.OutH * c.conv.OutW
	gb := c.b.grad().Data
	clear(gb)
	for i := 0; i < len(dd); i += c.OutC * nCols {
		addRowSums(gb, dd[i:i+c.OutC*nCols], nCols)
	}
	c.conv.GradW(dd, c.w.grad().Data)
	if c.noDx {
		return nil
	}
	c.conv.GradX(dd, c.w.W.Data, c.dx.Data)
	return c.dx
}

// addRowSums adds every row of the len(sums)×n matrix x into its element of
// sums, left to right. Four rows at a time: one row's sum is a chain of
// dependent additions, four chains overlap.
func addRowSums(sums, x []float32, n int) {
	r := 0
	for ; r+3 < len(sums); r += 4 {
		x0, x1, x2, x3 := x[r*n:][:n], x[(r+1)*n:][:n], x[(r+2)*n:][:n], x[(r+3)*n:][:n]
		s0, s1, s2, s3 := sums[r], sums[r+1], sums[r+2], sums[r+3]
		for j, v := range x0 {
			s0 += v
			s1 += x1[j]
			s2 += x2[j]
			s3 += x3[j]
		}
		sums[r], sums[r+1], sums[r+2], sums[r+3] = s0, s1, s2, s3
	}
	for ; r < len(sums); r++ {
		s := sums[r]
		for _, v := range x[r*n:][:n] {
			s += v
		}
		sums[r] = s
	}
}

// MaxPool halves spatial dimensions with 2×2/stride-2 max pooling over
// [B, C, H, W] inputs, every plane of the batch in one tensor.MaxPool2x2
// call.
type MaxPool struct {
	name  string
	slot  []float32 // each output's window slot, from the arena
	y, dx *tensor.Tensor
	arena *tensor.Arena
}

// NewMaxPool creates a 2×2 stride-2 max-pooling layer.
func NewMaxPool(name string) *MaxPool { return &MaxPool{name: name} }

func (l *MaxPool) Name() string             { return l.name }
func (l *MaxPool) Params() []*Param         { return nil }
func (l *MaxPool) setArena(a *tensor.Arena) { l.arena = a }

func (l *MaxPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 || x.Shape[2]%2 != 0 || x.Shape[3]%2 != 0 {
		panic(fmt.Sprintf("nn: maxpool %s needs [B C H W] with even H and W, got %v", l.name, x.Shape))
	}
	// y, dx and slot are fully overwritten by every pass: dirty arena
	// buffers are safe. dx's shape is the input's, so it is the key.
	if l.dx == nil || !slices.Equal(l.dx.Shape, x.Shape) {
		l.arena.PutTensor(l.y)
		l.arena.PutTensor(l.dx)
		l.arena.Put(l.slot)
		l.y = l.arena.GetTensor(x.Shape[0], x.Shape[1], x.Shape[2]/2, x.Shape[3]/2)
		l.dx = l.arena.GetTensor(x.Shape...)
		l.slot = l.arena.Get(l.y.Size())
	}
	tensor.MaxPool2x2(x, l.y, l.slot)
	return l.y
}

func (l *MaxPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	tensor.MaxPool2x2Backward(dout, l.slot, l.dx)
	return l.dx
}

// Flatten reshapes [B, ...] to [B, rest] without copying. Its outputs are
// reusable header tensors viewing the input's storage, so it never
// allocates after the first pass.
type Flatten struct {
	name    string
	inShape []int
	y, dx   tensor.Tensor
}

// NewFlatten creates a flattening layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

func (l *Flatten) Name() string     { return l.name }
func (l *Flatten) Params() []*Param { return nil }

func (l *Flatten) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	l.inShape = append(l.inShape[:0], x.Shape...)
	rest := x.Size() / x.Shape[0]
	return l.y.Rebind(x.Data, x.Shape[0], rest)
}

func (l *Flatten) Backward(dout *tensor.Tensor) *tensor.Tensor {
	return l.dx.Rebind(dout.Data, l.inShape...)
}

// Residual wraps an inner layer stack F and computes y = F(x) + x, the
// skip-connection building block of ResNet-style models, in one pass over
// the activations (tensor.AddF32). Input and output shapes of the inner
// stack must match. With fuseReLU the block's output activation rides in
// that pass, y = relu(F(x) + x), and the backward mask is recovered from
// the output as in Dense.
type Residual struct {
	name     string
	inner    []Layer
	fuseReLU bool
	y, dx    *tensor.Tensor
	dy       *tensor.Tensor // ReLU-masked dout (fused only)
	arena    *tensor.Arena
}

// NewResidual creates a residual block around the inner layers.
func NewResidual(name string, inner ...Layer) *Residual {
	return &Residual{name: name, inner: inner}
}

// NewResidualReLU creates a residual block whose output passes through a
// ReLU fused into the skip add. Bit-identical to NewResidual followed by
// NewReLU: the clamp is the last operation on each output element either
// way.
func NewResidualReLU(name string, inner ...Layer) *Residual {
	l := NewResidual(name, inner...)
	l.fuseReLU = true
	return l
}

func (l *Residual) Name() string { return l.name }

func (l *Residual) setArena(a *tensor.Arena) {
	l.arena = a
	for _, in := range l.inner {
		if u, ok := in.(arenaUser); ok {
			u.setArena(a)
		}
	}
}

func (l *Residual) Params() []*Param {
	var ps []*Param
	for _, in := range l.inner {
		ps = append(ps, in.Params()...)
	}
	return ps
}

func (l *Residual) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	h := x
	for _, in := range l.inner {
		h = in.Forward(h, train)
	}
	if h.Size() != x.Size() {
		panic(fmt.Sprintf("nn: residual %s shape mismatch: in %v out %v", l.name, x.Shape, h.Shape))
	}
	if l.y == nil || l.y.Size() != h.Size() {
		// y, dy and dx are fully overwritten each pass: dirty arena
		// buffers are safe.
		l.arena.PutTensor(l.y)
		l.arena.PutTensor(l.dx)
		l.arena.PutTensor(l.dy)
		l.y = l.arena.GetTensor(h.Shape...)
		l.dx = l.arena.GetTensor(x.Shape...)
		l.dy = nil
		if l.fuseReLU {
			l.dy = l.arena.GetTensor(h.Shape...)
		}
	}
	tensor.AddF32(l.y.Data, x.Data, h.Data, l.fuseReLU)
	return l.y
}

func (l *Residual) Backward(dout *tensor.Tensor) *tensor.Tensor {
	if l.fuseReLU {
		tensor.ReLUMaskF32(l.dy.Data, dout.Data, l.y.Data)
		dout = l.dy
	}
	d := dout
	for i := len(l.inner) - 1; i >= 0; i-- {
		d = l.inner[i].Backward(d)
	}
	tensor.AddF32(l.dx.Data, dout.Data, d.Data, false)
	return l.dx
}
