package nn

import (
	"fmt"
	"math"

	"disttrain/internal/tensor"
)

// BatchNorm normalizes each channel over the batch and spatial dimensions
// (for [B,C,H,W] inputs) or each feature over the batch (for [B,F] inputs),
// then applies a learnable scale γ and shift β. At evaluation time it uses
// running statistics accumulated during training.
//
// In data-parallel training each worker normalizes with its *local* batch
// statistics — exactly what the paper's TensorFlow setup does — so BN adds
// a small, realistic source of cross-replica disagreement.
type BatchNorm struct {
	name     string
	C        int
	eps      float32
	momentum float32

	gamma, beta *Param

	runMean, runVar []float32

	// caches for backward
	x      *tensor.Tensor
	xhat   []float32
	mean   []float32
	invStd []float32
	dx     *tensor.Tensor
	y      *tensor.Tensor
	lastN  int
	arena  *tensor.Arena
}

// NewBatchNorm creates a batch-normalization layer over c channels.
func NewBatchNorm(name string, c int) *BatchNorm {
	bn := &BatchNorm{name: name, C: c, eps: 1e-5, momentum: 0.9}
	g := tensor.New(c)
	g.Fill(1)
	bn.gamma = &Param{Name: name + ".gamma", W: g, G: tensor.New(c)}
	bn.beta = &Param{Name: name + ".beta", W: tensor.New(c), G: tensor.New(c)}
	bn.runMean = make([]float32, c)
	bn.runVar = make([]float32, c)
	for i := range bn.runVar {
		bn.runVar[i] = 1
	}
	return bn
}

func (bn *BatchNorm) Name() string             { return bn.name }
func (bn *BatchNorm) Params() []*Param         { return []*Param{bn.gamma, bn.beta} }
func (bn *BatchNorm) setArena(a *tensor.Arena) { bn.arena = a }

// geometry returns (groups, perChannelStride, spatial) describing how the
// flat data maps to channels: for [B,C,H,W] each channel c owns B·H·W
// values; for [B,F] each feature owns B values.
func (bn *BatchNorm) channelIndex(shape []int) (batch, spatial int) {
	switch len(shape) {
	case 2:
		if shape[1] != bn.C {
			panic(fmt.Sprintf("nn: batchnorm %s got %v, want [B %d]", bn.name, shape, bn.C))
		}
		return shape[0], 1
	case 4:
		if shape[1] != bn.C {
			panic(fmt.Sprintf("nn: batchnorm %s got %v, want [B %d H W]", bn.name, shape, bn.C))
		}
		return shape[0], shape[2] * shape[3]
	default:
		panic(fmt.Sprintf("nn: batchnorm %s unsupported rank %d", bn.name, len(shape)))
	}
}

func (bn *BatchNorm) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	batch, spatial := bn.channelIndex(x.Shape)
	n := x.Size()
	if bn.y == nil || bn.lastN != n {
		bn.arena.PutTensor(bn.y)
		bn.arena.PutTensor(bn.dx)
		bn.arena.Put(bn.xhat)
		bn.y = bn.arena.GetTensor(x.Shape...)
		bn.dx = bn.arena.GetTensor(x.Shape...)
		bn.xhat = bn.arena.Get(n)
		if bn.mean == nil {
			bn.mean = make([]float32, bn.C)
			bn.invStd = make([]float32, bn.C)
		}
		bn.lastN = n
	}
	bn.y.Shape = append(bn.y.Shape[:0], x.Shape...)
	bn.dx.Shape = append(bn.dx.Shape[:0], x.Shape...)
	bn.x = x

	perC := batch * spatial
	chanStride := bn.C * spatial
	idx := func(b, c, s int) int { return b*chanStride + c*spatial + s }

	g, bta := bn.gamma.W.Data, bn.beta.W.Data
	for c := 0; c < bn.C; c++ {
		var mean, variance float32
		if train {
			var sum float64
			for b := 0; b < batch; b++ {
				for s := 0; s < spatial; s++ {
					sum += float64(x.Data[idx(b, c, s)])
				}
			}
			mean = float32(sum / float64(perC))
			var sq float64
			for b := 0; b < batch; b++ {
				for s := 0; s < spatial; s++ {
					d := x.Data[idx(b, c, s)] - mean
					sq += float64(d) * float64(d)
				}
			}
			variance = float32(sq / float64(perC))
			bn.runMean[c] = bn.momentum*bn.runMean[c] + (1-bn.momentum)*mean
			bn.runVar[c] = bn.momentum*bn.runVar[c] + (1-bn.momentum)*variance
		} else {
			mean, variance = bn.runMean[c], bn.runVar[c]
		}
		inv := float32(1 / math.Sqrt(float64(variance)+float64(bn.eps)))
		bn.mean[c], bn.invStd[c] = mean, inv
		for b := 0; b < batch; b++ {
			for s := 0; s < spatial; s++ {
				i := idx(b, c, s)
				xh := (x.Data[i] - mean) * inv
				bn.xhat[i] = xh
				bn.y.Data[i] = g[c]*xh + bta[c]
			}
		}
	}
	return bn.y
}

func (bn *BatchNorm) Backward(dout *tensor.Tensor) *tensor.Tensor {
	batch, spatial := bn.channelIndex(bn.x.Shape)
	perC := float32(batch * spatial)
	chanStride := bn.C * spatial
	idx := func(b, c, s int) int { return b*chanStride + c*spatial + s }

	g := bn.gamma.W.Data
	dg, db := bn.gamma.G.Data, bn.beta.G.Data
	for c := 0; c < bn.C; c++ {
		// dγ, dβ and the two reduction terms of the BN gradient. dγ and dβ are
		// written as 0 + sum, not the bare sum: a sum that rounds to −0 in
		// float32 must leave +0, as adding it into a cleared accumulator did.
		var sumDy, sumDyXhat float64
		for b := 0; b < batch; b++ {
			for s := 0; s < spatial; s++ {
				i := idx(b, c, s)
				dy := float64(dout.Data[i])
				sumDy += dy
				sumDyXhat += dy * float64(bn.xhat[i])
			}
		}
		dg[c] = 0 + float32(sumDyXhat)
		db[c] = 0 + float32(sumDy)
		// dx = γ·invStd/N · (N·dy − Σdy − x̂·Σ(dy·x̂))
		k := g[c] * bn.invStd[c] / perC
		for b := 0; b < batch; b++ {
			for s := 0; s < spatial; s++ {
				i := idx(b, c, s)
				bn.dx.Data[i] = k * (perC*dout.Data[i] -
					float32(sumDy) - bn.xhat[i]*float32(sumDyXhat))
			}
		}
	}
	return bn.dx
}

// GlobalAvgPool reduces [B,C,H,W] to [B,C] by averaging each channel's
// spatial positions — the classifier head reduction of ResNet-style nets.
type GlobalAvgPool struct {
	name    string
	inShape []int
	y, dx   *tensor.Tensor
	arena   *tensor.Arena
}

// NewGlobalAvgPool creates a global average pooling layer.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{name: name} }

func (l *GlobalAvgPool) Name() string             { return l.name }
func (l *GlobalAvgPool) Params() []*Param         { return nil }
func (l *GlobalAvgPool) setArena(a *tensor.Arena) { l.arena = a }

func (l *GlobalAvgPool) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if len(x.Shape) != 4 {
		panic(fmt.Sprintf("nn: gap %s needs [B C H W], got %v", l.name, x.Shape))
	}
	b, c, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	l.inShape = append(l.inShape[:0], x.Shape...)
	if l.y == nil || l.y.Size() != b*c {
		l.arena.PutTensor(l.y)
		l.y = l.arena.GetTensor(b, c)
	}
	if l.dx == nil || l.dx.Size() != x.Size() {
		l.arena.PutTensor(l.dx)
		l.dx = l.arena.GetTensor(x.Shape...)
	}
	spatial := h * w
	inv := float32(1) / float32(spatial)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			base := (bi*c + ci) * spatial
			var s float32
			for i := 0; i < spatial; i++ {
				s += x.Data[base+i]
			}
			l.y.Data[bi*c+ci] = s * inv
		}
	}
	return l.y
}

func (l *GlobalAvgPool) Backward(dout *tensor.Tensor) *tensor.Tensor {
	b, c, h, w := l.inShape[0], l.inShape[1], l.inShape[2], l.inShape[3]
	spatial := h * w
	inv := float32(1) / float32(spatial)
	for bi := 0; bi < b; bi++ {
		for ci := 0; ci < c; ci++ {
			g := dout.Data[bi*c+ci] * inv
			base := (bi*c + ci) * spatial
			for i := 0; i < spatial; i++ {
				l.dx.Data[base+i] = g
			}
		}
	}
	return l.dx
}
