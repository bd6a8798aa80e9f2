package grad

import (
	"math"
	"slices"
	"testing"
)

// FuzzQuantizeRoundTrip checks that quantization never panics, never emits
// non-finite values for finite input, and keeps per-element error within
// half a quantization step.
func FuzzQuantizeRoundTrip(f *testing.F) {
	f.Add([]byte{0, 0, 128, 63, 0, 0, 0, 64})         // [1, 2]
	f.Add([]byte{0, 0, 0, 0})                         // [0]
	f.Add([]byte{255, 255, 127, 127, 1, 0, 128, 255}) // extremes
	f.Add([]byte{255, 255, 127, 127})                 // [MaxFloat32]: scale·127 once overflowed to +Inf
	f.Fuzz(func(t *testing.T, raw []byte) {
		n := len(raw) / 4
		if n == 0 {
			return
		}
		v := make([]float32, n)
		var maxAbs float64
		for i := 0; i < n; i++ {
			bits := uint32(raw[i*4]) | uint32(raw[i*4+1])<<8 |
				uint32(raw[i*4+2])<<16 | uint32(raw[i*4+3])<<24
			v[i] = math.Float32frombits(bits)
			if math.IsNaN(float64(v[i])) || math.IsInf(float64(v[i]), 0) {
				return // only finite inputs are in-contract
			}
			if a := math.Abs(float64(v[i])); a > maxAbs {
				maxAbs = a
			}
		}
		orig := append([]float32(nil), v...)
		q := Quantize8(v)
		out := make([]float32, n)
		Dequantize8(q, out)
		step := maxAbs / 127
		for i := range out {
			if math.IsNaN(float64(out[i])) || math.IsInf(float64(out[i]), 0) {
				t.Fatalf("non-finite output %v for finite input %v", out[i], orig[i])
			}
			if math.Abs(float64(orig[i]-out[i])) > step/2+1e-6*maxAbs+1e-30 {
				t.Fatalf("error beyond half step at %d: %v -> %v (step %v)", i, orig[i], out[i], step)
			}
		}
	})
}

// FuzzF16RoundTrip checks the half-precision codec over arbitrary bit
// patterns: conversion never panics, finite halves convert exactly (F16ToF32
// is exact, so F32ToF16 must invert it), finite float32 inputs round with
// bounded relative error, and NaN/Inf classes are preserved.
func FuzzF16RoundTrip(f *testing.F) {
	f.Add(uint16(0x3c00), uint32(0x3f800000)) // 1.0, 1.0
	f.Add(uint16(0x0001), uint32(0x7f7fffff)) // min subnormal, max float32
	f.Add(uint16(0x7c00), uint32(0x7fc00000)) // +Inf, NaN
	f.Add(uint16(0xfbff), uint32(0x00000001)) // -65504, min subnormal f32
	f.Fuzz(func(t *testing.T, h uint16, bits uint32) {
		// Direction 1: every half value must survive f16→f32→f16 exactly
		// (float32 covers the whole half range), except NaNs which need only
		// stay NaN.
		x := F16ToF32(h)
		back := F32ToF16(x)
		if math.IsNaN(float64(x)) {
			if back&0x7c00 != 0x7c00 || back&0x3ff == 0 {
				t.Fatalf("NaN half %#04x came back as %#04x", h, back)
			}
		} else if back != h {
			t.Fatalf("half %#04x -> %v -> %#04x", h, x, back)
		}

		// Direction 2: arbitrary float32 down-conversion stays in class and
		// within half-precision rounding error when finite.
		v := math.Float32frombits(bits)
		g := F16ToF32(F32ToF16(v))
		switch {
		case math.IsNaN(float64(v)):
			if !math.IsNaN(float64(g)) {
				t.Fatalf("NaN %#08x became %v", bits, g)
			}
		case math.IsInf(float64(v), 0):
			if float64(g) != float64(v) {
				t.Fatalf("Inf %v became %v", v, g)
			}
		default:
			if math.IsNaN(float64(g)) {
				t.Fatalf("finite %v became NaN", v)
			}
			av := math.Abs(float64(v))
			if av > 65504 {
				if !math.IsInf(float64(g), 0) && math.Abs(float64(g)) != 65504 {
					// overflow must saturate to Inf (this codec's choice)
					t.Fatalf("overflowing %v became %v", v, g)
				}
			} else if math.Abs(float64(g)-float64(v)) > av/2048+6e-8 {
				t.Fatalf("%v rounds to %v: error beyond half ULP", v, g)
			}
		}
	})
}

// FuzzDGCCompress checks that the compressor tolerates arbitrary finite
// gradients without panicking and always emits sorted, in-range indices —
// exactly the ones the reference sort selects from the accumulator.
func FuzzDGCCompress(f *testing.F) {
	f.Add(uint16(8), int16(100), int16(-3))
	f.Add(uint16(1), int16(0), int16(0))
	f.Add(uint16(500), int16(32767), int16(1))
	f.Fuzz(func(t *testing.T, n16 uint16, a, b int16) {
		n := int(n16)%512 + 1
		c := NewCompressor(DGCConfig{Ratio: 0.1, Momentum: 0.9, ClipNorm: 2}, n)
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(a)*0.001 + float32(b)*0.01*float32(i%7)
		}
		sp := c.Compress(g)
		if len(sp.Idx) != len(sp.Val) {
			t.Fatal("idx/val length mismatch")
		}
		prev := int32(-1)
		for _, i := range sp.Idx {
			if i <= prev || int(i) >= n {
				t.Fatalf("indices not sorted/in-range: %v", sp.Idx)
			}
			prev = i
		}
		// The accumulator as selection saw it: the residual, with the sent
		// entries put back.
		acc := slices.Clone(c.Residual())
		got := make([]int, len(sp.Idx))
		for j, i := range sp.Idx {
			acc[i], got[j] = sp.Val[j], int(i)
		}
		if want := refTopK(acc, len(sp.Idx)); !slices.Equal(got, want) {
			t.Fatalf("selected %v, reference sort %v", got, want)
		}
		dense := make([]float32, n)
		if err := Decompress(sp, 1, dense); err != nil {
			t.Fatalf("Decompress rejected compressor output: %v", err)
		}
		// Corrupted payloads must be rejected, not applied or panicked on.
		if len(sp.Idx) > 0 {
			bad := Sparse{Idx: append([]int32(nil), sp.Idx...), Val: sp.Val, Dense: sp.Dense}
			bad.Idx[0] = int32(n) // out of range
			if err := Decompress(bad, 1, dense); err == nil {
				t.Fatal("out-of-range index accepted")
			}
		}
		if len(sp.Idx) > 1 {
			bad := Sparse{Idx: append([]int32(nil), sp.Idx...), Val: sp.Val, Dense: sp.Dense}
			bad.Idx[1] = bad.Idx[0] // duplicate
			if err := Decompress(bad, 1, dense); err == nil {
				t.Fatal("duplicate index accepted")
			}
		}
	})
}
