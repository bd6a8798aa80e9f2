package tensor

import (
	"fmt"
	"math"
	"unsafe"
)

// The element-wise passes of the data planes: the collectives' fold
// (AxpyF32), the momentum-SGD step (SGDStepF32), the int8 gradient codec
// (MaxAbsF32, Quant8F32, Dequant8F32) and the backward pass of a fused ReLU
// (ReLUMaskF32). Each pass is defined once, by the scalar loop in its *Ref
// function. The exported function checks lengths,
// hands the multiple-of-vecBlock prefix to an AVX2 kernel that performs each
// lane's operations in the scalar loop's order (separate multiply and add,
// never FMA, the same first source operand — the one whose payload survives
// when both are NaN), and runs the reference loop on what is left: the tail,
// and the whole vector without AVX2, off amd64, or when operands partially
// overlap. Results are bit-identical on every path.
//
// The reference loops are kept out of line so that each is compiled once:
// the compiler chooses an instruction's first source operand per inlining
// site, and a second compiled copy could keep the other NaN's payload.

// vecBlock is the kernels' unroll: elements per loop iteration.
const vecBlock = 32

// kernelLen returns how many leading elements of an n-element pass go to
// the AVX2 kernel: the largest multiple of vecBlock, 0 when the kernels are
// unavailable. A kernel is only ever called with a positive count, so an
// empty slice's &x[0] is never taken.
func kernelLen(n int) int {
	if !hasAVX2 {
		return 0
	}
	return n &^ (vecBlock - 1)
}

// disjointF32 reports whether a and b share no memory.
func disjointF32(a, b []float32) bool {
	pa := uintptr(unsafe.Pointer(unsafe.SliceData(a)))
	pb := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return pa+4*uintptr(len(a)) <= pb || pb+4*uintptr(len(b)) <= pa
}

// AxpyF32 computes y += alpha*x for raw slices (the flat-parameter hot path
// used by every aggregation algorithm, and the reduce step of every
// collective). x and y may be the same slice; when they overlap partly — the
// scalar loop then reads elements it has already written, which a vector
// loop would not — the reference loop runs, so the result is the scalar
// loop's in every case.
func AxpyF32(alpha float32, x, y []float32) {
	if len(x) != len(y) {
		panic("tensor: axpy length mismatch")
	}
	n := kernelLen(len(x))
	if n > 0 && (&x[0] == &y[0] || disjointF32(x, y)) {
		axpyAVX2(alpha, &x[0], &y[0], n)
	} else {
		n = 0
	}
	axpyRef(alpha, x[n:], y[n:])
}

//go:noinline
func axpyRef(alpha float32, x, y []float32) {
	y = y[:len(x)]
	for i, v := range x {
		y[i] += alpha * v
	}
}

// SGDStepF32 is one momentum-SGD update with L2 weight decay over p, given
// scale·g as the gradient and v as the velocity:
//
//	gi = float32(g·scale); v = (mu·v + gi) + wd·p; p -= lr·v
//
// The product g·scale is rounded to float32 before anything is added to it,
// so the bits are those of scaling g first. g is not written. p, g and v
// must have one length; if any two of them share memory the reference loop
// runs (its element-by-element read-after-write order is the definition).
func SGDStepF32(p, g, v []float32, scale, lr, mu, wd float32) {
	if len(g) != len(p) || len(v) != len(p) {
		panic(fmt.Sprintf("tensor: SGD step lengths p %d, g %d, v %d", len(p), len(g), len(v)))
	}
	n := kernelLen(len(p))
	if n > 0 && disjointF32(p, g) && disjointF32(p, v) && disjointF32(g, v) {
		sgdStepAVX2(&p[0], &g[0], &v[0], n, scale, lr, mu, wd)
	} else {
		n = 0
	}
	sgdStepRef(p[n:], g[n:], v[n:], scale, lr, mu, wd)
}

//go:noinline
func sgdStepRef(p, g, v []float32, scale, lr, mu, wd float32) {
	g, v = g[:len(p)], v[:len(p)]
	for i := range p {
		gi := float32(g[i] * scale)
		vi := mu*v[i] + gi + wd*p[i]
		v[i] = vi
		p[i] -= lr * vi
	}
}

// MaxAbsF32 returns the largest |x[i]|, 0 for an empty slice. NaNs are
// skipped, exactly as a running `if a > m { m = a }` skips them.
func MaxAbsF32(x []float32) float32 {
	var m float32
	n := kernelLen(len(x))
	if n > 0 {
		m = maxAbsAVX2(&x[0], n)
	}
	return maxAbsRef(m, x[n:])
}

const signBit = 1 << 31

// maxAbsRef continues a running maximum m over x.
//
//go:noinline
func maxAbsRef(m float32, x []float32) float32 {
	for _, v := range x {
		// |v| through the sign bit: gradient signs are a coin flip, and a
		// branch on them mispredicts half the time.
		if a := math.Float32frombits(math.Float32bits(v) &^ signBit); a > m {
			m = a
		}
	}
	return m
}

// Quant8F32 writes the symmetric int8 code of every x[i] into q[i]:
// r = x·inv rounded half away from zero (add copysign(0.5, r), truncate)
// and clamped to ±127; a NaN or out-of-range r truncates to the minimum
// int32 and so clamps to −127. With roundTrip set it also overwrites x[i]
// with scale·q[i] — what a receiver of the code reconstructs — in the same
// pass. q must have x's length and must not share memory with it (it
// cannot, short of unsafe).
func Quant8F32(q []int8, x []float32, inv, scale float32, roundTrip bool) {
	if len(q) != len(x) {
		panic(fmt.Sprintf("tensor: quantize %d elements into %d codes", len(x), len(q)))
	}
	n := kernelLen(len(x))
	if n > 0 {
		quant8AVX2(&q[0], &x[0], n, inv, scale, roundTrip)
	}
	quant8Ref(q[n:], x[n:], inv, scale, roundTrip)
}

//go:noinline
func quant8Ref(q []int8, x []float32, inv, scale float32, roundTrip bool) {
	q = q[:len(x)]
	half := math.Float32bits(0.5)
	for i, v := range x {
		r := v * inv
		iv := int32(r + math.Float32frombits(math.Float32bits(r)&signBit|half))
		c := int8(max(min(iv, 127), -127))
		q[i] = c
		if roundTrip {
			x[i] = scale * float32(c)
		}
	}
}

// Dequant8F32 reconstructs dst[i] = scale·q[i]. dst must have q's length
// and must not share memory with it.
func Dequant8F32(dst []float32, q []int8, scale float32) {
	if len(dst) != len(q) {
		panic(fmt.Sprintf("tensor: dequantize %d codes into %d elements", len(q), len(dst)))
	}
	n := kernelLen(len(q))
	if n > 0 {
		dequant8AVX2(&dst[0], &q[0], n, scale)
	}
	dequant8Ref(dst[n:], q[n:], scale)
}

//go:noinline
func dequant8Ref(dst []float32, q []int8, scale float32) {
	dst = dst[:len(q)]
	for i, c := range q {
		dst[i] = scale * float32(c)
	}
}

// ReLUMaskF32 is the backward pass of a ReLU fused into the layer that
// produced y: dst[i] = g[i] where y[i] > 0, +0 elsewhere (a NaN y is
// elsewhere). dst may be g; it must not overlap y or g otherwise.
func ReLUMaskF32(dst, g, y []float32) {
	if len(g) != len(dst) || len(y) != len(dst) {
		panic(fmt.Sprintf("tensor: ReLU mask lengths dst %d, g %d, y %d", len(dst), len(g), len(y)))
	}
	n := kernelLen(len(dst))
	if n > 0 {
		reluMaskAVX2(&dst[0], &g[0], &y[0], n)
	}
	reluMaskRef(dst[n:], g[n:], y[n:])
}

//go:noinline
func reluMaskRef(dst, g, y []float32) {
	g, y = g[:len(dst)], y[:len(dst)]
	for i := range dst {
		// Through the bits: half the activations of a trained net are
		// clamped, and a branch on them mispredicts half the time.
		var keep uint32
		if y[i] > 0 {
			keep = ^uint32(0)
		}
		dst[i] = math.Float32frombits(math.Float32bits(g[i]) & keep)
	}
}
