package grad

import (
	"fmt"
	"math"

	"disttrain/internal/tensor"
)

// Quantized8 is an 8-bit uniformly quantized vector: each value is
// reconstructed as Scale·int8. Wire size is one byte per element plus the
// scale — a fixed 4× compression against float32.
type Quantized8 struct {
	Scale float32
	Q     []int8
}

// WireBytes returns the transmitted size (1 byte/element + 4-byte scale).
func (q Quantized8) WireBytes() int64 { return int64(len(q.Q)) + 4 }

// Quantize8 quantizes v to 8 bits with a symmetric per-vector scale chosen
// from the maximum magnitude. The zero vector quantizes to scale 0.
func Quantize8(v []float32) Quantized8 { return Quantize8Into(v, nil) }

// Quantize8Into is Quantize8 with the codes written into buf's storage when
// that holds len(v) of them (a fresh slice otherwise): a sender that
// quantizes a model-sized gradient every step keeps the returned Q and hands
// it back, instead of allocating megabytes per call.
func Quantize8Into(v []float32, buf []int8) Quantized8 { return quantize8(v, buf, false) }

// Quantize8RoundTripInto is Quantize8Into that also leaves in v what
// Dequantize8 reconstructs from the codes — the sender of a quantized
// gradient continues with the values its receivers see — in the pass that
// writes the codes.
func Quantize8RoundTripInto(v []float32, buf []int8) Quantized8 { return quantize8(v, buf, true) }

func quantize8(v []float32, buf []int8, roundTrip bool) Quantized8 {
	if cap(buf) < len(v) {
		buf = make([]int8, len(v))
	}
	q := Quantized8{Q: buf[:len(v)]}
	scale, inv, zero := scale8(v)
	if zero {
		clear(q.Q)
		if roundTrip {
			clear(v) // 0·0, also where v held −0 or NaN
		}
		return q
	}
	q.Scale = scale
	tensor.Quant8F32(q.Q, v, inv, scale, roundTrip)
	return q
}

// scale8 derives the codec's scale and the factor that maps a value to its
// code from v's largest magnitude. zero reports a vector of nothing but
// zeros (and NaNs, which the maximum skips): every code is 0, the scale 0.
func scale8(v []float32) (scale, inv float32, zero bool) {
	maxAbs := tensor.MaxAbsF32(v)
	if maxAbs == 0 {
		return 0, 0, true
	}
	scale = maxAbs / 127
	if maxAbs <= math.MaxFloat32 && scale*127 > math.MaxFloat32 {
		// At the very top of the float32 range the division rounds up and
		// the receiver's Scale·127 overflows: a finite gradient would
		// dequantize to ±Inf. One ulp down, Scale·127 is finite again.
		scale = math.Float32frombits(math.Float32bits(scale) - 1)
	}
	return scale, 127 / maxAbs, false
}

// Dequantize8 reconstructs the vector into dst. A length mismatch returns a
// validation error (quantized payloads arrive off the wire, so corrupt input
// must be rejectable, not a panic — the Decompress contract).
func Dequantize8(q Quantized8, dst []float32) error {
	if len(dst) != len(q.Q) {
		return fmt.Errorf("grad: dequantize into %d, want %d", len(dst), len(q.Q))
	}
	tensor.Dequant8F32(dst, q.Q, q.Scale)
	return nil
}

// QuantizedF16 is a half-precision (IEEE 754 binary16) encoded vector: each
// element independently rounded to nearest-even. Wire size is two bytes per
// element — a fixed 2× compression against float32 with ~3 decimal digits
// kept, no per-vector scale needed.
type QuantizedF16 struct {
	H []uint16
}

// WireBytes returns the transmitted size (2 bytes/element).
func (q QuantizedF16) WireBytes() int64 { return int64(len(q.H)) * 2 }

// QuantizeF16 converts v to half precision.
func QuantizeF16(v []float32) QuantizedF16 {
	q := QuantizedF16{H: make([]uint16, len(v))}
	for i, x := range v {
		q.H[i] = F32ToF16(x)
	}
	return q
}

// DequantizeF16 reconstructs the vector into dst. A length mismatch returns
// a validation error, mirroring Dequantize8.
func DequantizeF16(q QuantizedF16, dst []float32) error {
	if len(dst) != len(q.H) {
		return fmt.Errorf("grad: dequantize into %d, want %d", len(dst), len(q.H))
	}
	for i, h := range q.H {
		dst[i] = F16ToF32(h)
	}
	return nil
}

// QuantizeF16RoundTrip applies the fp16 round-trip loss to v in place and
// returns the wire size — the simulator's model of an fp16 transfer.
func QuantizeF16RoundTrip(v []float32) int64 {
	for i, x := range v {
		v[i] = F16ToF32(F32ToF16(x))
	}
	return int64(len(v)) * 2
}

// F32ToF16 converts a float32 to IEEE 754 binary16 with round-to-nearest-
// even. Values beyond the half range become ±Inf; subnormal halves are
// produced for tiny inputs; NaN keeps its top payload bits (forced nonzero
// so it stays a NaN).
func F32ToF16(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b >> 16 & 0x8000)
	exp := int32(b >> 23 & 0xff)
	m := b & 0x7fffff
	if exp == 0xff { // Inf or NaN
		if m == 0 {
			return sign | 0x7c00
		}
		p := uint16(m >> 13)
		if p == 0 {
			p = 1
		}
		return sign | 0x7c00 | p
	}
	e := exp - 127 + 15
	if e >= 31 { // overflow → Inf
		return sign | 0x7c00
	}
	if e <= 0 { // subnormal half (or zero)
		if e < -10 { // too small for even the smallest subnormal
			return sign
		}
		m |= 0x800000 // make the implicit bit explicit
		shift := uint32(14 - e)
		half := uint32(1) << (shift - 1)
		// round to nearest, ties to even
		return sign | uint16((m+half-1+(m>>shift&1))>>shift)
	}
	// normal: round the 13 dropped mantissa bits to nearest-even; a mantissa
	// carry propagates into the exponent via the additions below, and an
	// exponent carry to 31 lands exactly on the Inf encoding.
	r := m + 0xfff + (m >> 13 & 1)
	out := uint32(e)<<10 + r>>13
	if out >= 0x7c00 {
		return sign | 0x7c00
	}
	return sign | uint16(out)
}

// F16ToF32 converts an IEEE 754 binary16 to float32 (exact).
func F16ToF32(h uint16) float32 {
	sign := uint32(h&0x8000) << 16
	e := uint32(h >> 10 & 0x1f)
	m := uint32(h & 0x3ff)
	switch {
	case e == 0:
		if m == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// subnormal: normalize into a float32 mantissa
		e = 113
		for m&0x400 == 0 {
			m <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (m&0x3ff)<<13)
	case e == 31:
		return math.Float32frombits(sign | 0x7f800000 | m<<13) // ±Inf / NaN
	default:
		return math.Float32frombits(sign | (e+112)<<23 | m<<13)
	}
}
