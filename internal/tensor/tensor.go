// Package tensor implements dense float32 tensors and the numeric kernels
// the neural-network stack is built on: GEMM, direct convolution, pooling,
// and elementwise/reduction helpers.
//
// The package is deliberately minimal — row-major contiguous storage only,
// no views, no broadcasting beyond what the nn package needs — because its
// job is to make the distributed-training algorithms under study (package
// core) exercise real gradient math, not to be a general array library.
package tensor

import (
	"fmt"
	"math"

	"disttrain/internal/rng"
)

// Tensor is a dense row-major float32 array with an explicit shape.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic(fmt.Sprintf("tensor: non-positive dim %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: make([]float32, n)}
}

// FromSlice wraps data (not copied) with the given shape.
func FromSlice(data []float32, shape ...int) *Tensor {
	t := &Tensor{Shape: append([]int(nil), shape...), Data: data}
	if t.Size() != len(data) {
		panic(fmt.Sprintf("tensor: shape %v does not match data length %d", shape, len(data)))
	}
	return t
}

// Rebind points t at data with the given shape without allocating new
// storage, and returns t. Layers reuse one header tensor per role to view
// per-sample slices of a batch without a per-call FromSlice allocation.
// The panic message reports sizes only: formatting shape itself would make
// the variadic slice escape to the heap at every call site.
func (t *Tensor) Rebind(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: rebind shape size %d does not match data length %d", n, len(data)))
	}
	t.Data = data
	t.Shape = append(t.Shape[:0], shape...)
	return t
}

// Size returns the number of elements.
func (t *Tensor) Size() int {
	n := 1
	for _, d := range t.Shape {
		n *= d
	}
	return n
}

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Zero sets every element to zero.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// CopyFrom copies src's data into t. Sizes must match.
func (t *Tensor) CopyFrom(src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic("tensor: CopyFrom size mismatch")
	}
	copy(t.Data, src.Data)
}

// At returns the element at the given indices (bounds unchecked beyond the
// underlying slice; intended for tests and small code paths).
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set assigns the element at the given indices.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: %d indices for rank-%d tensor", len(idx), len(t.Shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %d out of range for dim %d (size %d)", x, i, t.Shape[i]))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// RandNormal fills t with N(0, std²) variates from r.
func (t *Tensor) RandNormal(r *rng.RNG, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64() * std)
	}
}

// RandUniform fills t with uniform variates in [lo, hi).
func (t *Tensor) RandUniform(r *rng.RNG, lo, hi float64) {
	for i := range t.Data {
		t.Data[i] = float32(lo + (hi-lo)*r.Float64())
	}
}

// AddScaled computes t += alpha*src elementwise.
func (t *Tensor) AddScaled(alpha float32, src *Tensor) {
	if len(t.Data) != len(src.Data) {
		panic("tensor: AddScaled size mismatch")
	}
	AxpyF32(alpha, src.Data, t.Data)
}

// Scale multiplies every element by alpha.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// L2Norm returns the Euclidean norm of the tensor, accumulated in float64
// for stability.
func (t *Tensor) L2Norm() float64 {
	return L2NormF32(t.Data)
}

// ScaleF32 computes x *= alpha in place.
func ScaleF32(alpha float32, x []float32) {
	for i := range x {
		x[i] *= alpha
	}
}

// L2NormF32 returns the Euclidean norm of x with float64 accumulation.
func L2NormF32(x []float32) float64 {
	var s float64
	for _, v := range x {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// The GEMM kernels (MatMul, MatMulTransA, MatMulTransB) live in gemm.go:
// cache-blocked, register-tiled, and parallelized over row panels with
// byte-identical results at any GOMAXPROCS. AxpyF32 and the other vector
// kernels live in vec.go.
