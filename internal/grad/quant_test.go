package grad

import (
	"math"
	"testing"
	"testing/quick"

	"disttrain/internal/rng"
)

func TestQuantizeRoundTripBoundedError(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(200)
		v := make([]float32, n)
		var maxAbs float64
		for i := range v {
			v[i] = float32(r.NormFloat64() * 3)
			if a := math.Abs(float64(v[i])); a > maxAbs {
				maxAbs = a
			}
		}
		q := Quantize8(v)
		out := make([]float32, n)
		Dequantize8(q, out)
		// Error per element is bounded by half a quantization step (plus
		// float32 rounding proportional to the scale).
		step := maxAbs / 127
		for i := range v {
			if math.Abs(float64(v[i]-out[i])) > step/2+1e-6*maxAbs+1e-30 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQuantizeZeroVector(t *testing.T) {
	v := make([]float32, 5)
	q := Quantize8(v)
	if q.Scale != 0 {
		t.Fatalf("scale = %v", q.Scale)
	}
	out := []float32{1, 1, 1, 1, 1}
	Dequantize8(q, out)
	for _, x := range out {
		if x != 0 {
			t.Fatal("zero vector did not reconstruct to zero")
		}
	}
}

func TestQuantizePreservesExtremes(t *testing.T) {
	v := []float32{-4, 0, 4}
	q := Quantize8(v)
	out := make([]float32, 3)
	Dequantize8(q, out)
	if out[0] != -4 || out[2] != 4 {
		t.Fatalf("extremes not exact: %v", out)
	}
	if out[1] != 0 {
		t.Fatalf("zero moved: %v", out[1])
	}
}

// TestQuantize8IntoReusesBuffer: a buffer that holds the codes is written in
// place — every element, the all-zero vector included, whose codes nothing
// but the clear sets — a short one is replaced, and the codes are Quantize8's.
func TestQuantize8IntoReusesBuffer(t *testing.T) {
	buf := make([]int8, 8)
	for _, v := range [][]float32{{1, -2, 3, 0.5}, {0, 0, 0}, {-7, 7, 1, 1, 1, 1, 1, 1}, make([]float32, 9)} {
		for i := range buf {
			buf[i] = 99
		}
		want := Quantize8(v)
		got := Quantize8Into(v, buf[:0])
		if got.Scale != want.Scale || len(got.Q) != len(v) {
			t.Fatalf("%v: scale %v len %d, want %v len %d", v, got.Scale, len(got.Q), want.Scale, len(v))
		}
		for i := range want.Q {
			if got.Q[i] != want.Q[i] {
				t.Fatalf("%v: code %d = %d, want %d", v, i, got.Q[i], want.Q[i])
			}
		}
		if reused := &got.Q[0] == &buf[0]; reused != (len(v) <= cap(buf)) {
			t.Fatalf("%v: reused=%v with a buffer of %d", v, reused, cap(buf))
		}
	}
}

func TestQuantizeWireBytes(t *testing.T) {
	q := Quantize8(make([]float32, 100))
	if q.WireBytes() != 104 {
		t.Fatalf("wire = %d", q.WireBytes())
	}
}

func TestQuantizeRoundTripInPlace(t *testing.T) {
	v := []float32{1, -2, 3}
	bytes := QuantizeRoundTrip(v)
	if bytes != 7 {
		t.Fatalf("bytes = %d", bytes)
	}
	if math.Abs(float64(v[2]-3)) > 3.0/254+1e-6 {
		t.Fatalf("round trip moved max: %v", v[2])
	}
}

// TestQuantizeRoundTripMatchesCodec: the simulator's in-place model and the
// live sender's quantize-into-a-buffer are the codec itself — Quantize8's
// codes and scale, Dequantize8's values, bit for bit — over lengths with and
// without a kernel prefix, the zero vector and one of NaNs and −0 included,
// and the in-place model allocates nothing.
func TestQuantizeRoundTripMatchesCodec(t *testing.T) {
	r := rng.New(9)
	nan := float32(math.NaN())
	vecs := [][]float32{nil, {0, nan, float32(math.Copysign(0, -1))}, make([]float32, 40)}
	for _, n := range []int{1, 31, 64, 1500, 5000} {
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(r.NormFloat64())
		}
		v[n/2] = nan
		vecs = append(vecs, v)
	}
	for _, v := range vecs {
		q := Quantize8(v)
		want := make([]float32, len(v))
		if err := Dequantize8(q, want); err != nil {
			t.Fatal(err)
		}
		inPlace := append([]float32(nil), v...)
		if wire := QuantizeRoundTrip(inPlace); wire != q.WireBytes() {
			t.Fatalf("n=%d: wire size %d, want %d", len(v), wire, q.WireBytes())
		}
		sender := append([]float32(nil), v...)
		got := Quantize8RoundTripInto(sender, nil)
		if math.Float32bits(got.Scale) != math.Float32bits(q.Scale) {
			t.Fatalf("n=%d: scale %v, want %v", len(v), got.Scale, q.Scale)
		}
		for i := range want {
			w := math.Float32bits(want[i])
			if math.Float32bits(inPlace[i]) != w || math.Float32bits(sender[i]) != w || got.Q[i] != q.Q[i] {
				t.Fatalf("n=%d element %d: in place %v, sender %v (code %d), codec %v (code %d)",
					len(v), i, inPlace[i], sender[i], got.Q[i], want[i], q.Q[i])
			}
		}
		if a := testing.AllocsPerRun(10, func() { QuantizeRoundTrip(inPlace) }); a != 0 {
			t.Fatalf("n=%d: QuantizeRoundTrip allocates %v times per call", len(v), a)
		}
	}
}

func TestDequantizeLengthError(t *testing.T) {
	// Quantized payloads arrive off the wire: a length mismatch must be a
	// rejectable validation error, not a panic (the Decompress contract).
	if err := Dequantize8(Quantized8{Scale: 1, Q: make([]int8, 3)}, make([]float32, 2)); err == nil {
		t.Fatal("Dequantize8 accepted a length mismatch")
	}
	if err := DequantizeF16(QuantizedF16{H: make([]uint16, 3)}, make([]float32, 2)); err == nil {
		t.Fatal("DequantizeF16 accepted a length mismatch")
	}
	if err := Dequantize8(Quantize8([]float32{1, 2}), make([]float32, 2)); err != nil {
		t.Fatalf("valid dequantize rejected: %v", err)
	}
}

func TestF16KnownValues(t *testing.T) {
	cases := []struct {
		f float32
		h uint16
	}{
		{0, 0x0000},
		{1, 0x3c00},
		{-2, 0xc000},
		{0.5, 0x3800},
		{65504, 0x7bff},                 // largest finite half
		{6.103515625e-05, 0x0400},       // smallest normal half (2^-14)
		{5.960464477539063e-08, 0x0001}, // smallest subnormal half (2^-24)
		{float32(math.Inf(1)), 0x7c00},  // +Inf
		{float32(math.Inf(-1)), 0xfc00}, // -Inf
		{70000, 0x7c00},                 // overflow → Inf
		{1e-10, 0x0000},                 // underflow → 0
		{1.0009765625, 0x3c01},          // 1 + 2^-10: exactly representable
		{1.00048828125, 0x3c00},         // 1 + 2^-11: tie, rounds to even (down)
		{1.0014648438, 0x3c02},          // 1 + 3·2^-11: tie rounds to even (up)
	}
	for _, c := range cases {
		if got := F32ToF16(c.f); got != c.h {
			t.Errorf("F32ToF16(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
	}
	// Exactly-representable halves must round-trip bit-perfectly, NaN must
	// stay NaN.
	for _, h := range []uint16{0x3c00, 0x0001, 0x03ff, 0x0400, 0x7bff, 0xfbff, 0x8000} {
		if got := F32ToF16(F16ToF32(h)); got != h {
			t.Errorf("half %#04x round-trips to %#04x", h, got)
		}
	}
	if !math.IsNaN(float64(F16ToF32(F32ToF16(float32(math.NaN()))))) {
		t.Error("NaN did not survive the f16 round trip")
	}
}

func TestF16RoundTripBoundedError(t *testing.T) {
	r := rng.New(11)
	v := make([]float32, 500)
	for i := range v {
		v[i] = float32(r.NormFloat64() * 10)
	}
	orig := append([]float32(nil), v...)
	bytes := QuantizeF16RoundTrip(v)
	if bytes != int64(len(v))*2 {
		t.Fatalf("wire bytes = %d", bytes)
	}
	for i := range v {
		// Half has 11 significand bits: relative error ≤ 2^-11.
		if math.Abs(float64(v[i]-orig[i])) > math.Abs(float64(orig[i]))/2048+1e-7 {
			t.Fatalf("element %d error too large: %v -> %v", i, orig[i], v[i])
		}
	}
	// Round-trip equals the explicit quantize/dequantize pair.
	q := QuantizeF16(orig)
	out := make([]float32, len(orig))
	if err := DequantizeF16(q, out); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if math.Float32bits(out[i]) != math.Float32bits(v[i]) {
			t.Fatalf("round-trip and codec disagree at %d", i)
		}
	}
}

func BenchmarkQuantize8(b *testing.B) {
	r := rng.New(1)
	v := make([]float32, 1<<16)
	for i := range v {
		v[i] = float32(r.NormFloat64())
	}
	b.SetBytes(int64(len(v) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Quantize8(v)
	}
}

// quantize8Branchy is the formulation Quantize8 had before it went
// branch-free: a sign test for |x| and another for the rounding direction.
// It is kept only as the reference the property test compares against.
func quantize8Branchy(v []float32) Quantized8 {
	var maxAbs float32
	for _, x := range v {
		a := x
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	q := Quantized8{Q: make([]int8, len(v))}
	if maxAbs == 0 {
		return q
	}
	q.Scale = maxAbs / 127
	inv := 127 / maxAbs
	for i, x := range v {
		r := x * inv
		var iv int32
		if r >= 0 {
			iv = int32(r + 0.5)
		} else {
			iv = int32(r - 0.5)
		}
		if iv > 127 {
			iv = 127
		}
		if iv < -127 {
			iv = -127
		}
		q.Q[i] = int8(iv)
	}
	return q
}

// TestQuantize8MatchesBranchyReference pins the branch-free Quantize8 to
// the old formulation, bit for bit in scale and byte for byte in payload:
// random vectors, both zeros, exact half-way points of either sign, values
// at and beyond the clamp, and the non-finite inputs of the fuzz corpus. The
// one input class where Quantize8 departs from the old scale on purpose —
// a maximum so close to MaxFloat32 that scale·127 overflowed — is
// TestQuantize8MaxFloat32StaysFinite's.
func TestQuantize8MatchesBranchyReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	nan := math.Float32frombits(0xff800001) // FuzzQuantizeRoundTrip's "extremes" seed
	inf := float32(math.Inf(1))
	cases := [][]float32{
		{0, negZero},
		{negZero, 127, -127},
		// maxAbs 127 makes inv exactly 1, so k+0.5 is an exact half-way point.
		{127, 0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 125.5, -125.5, 126.5, -126.5},
		{127, 0.49999997, -0.49999997, 126.49999, -126.49999},
		{-127, 127, 126.99999, -126.99999},
		{math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, 0},
		{math.MaxFloat32 / 2, -math.MaxFloat32 / 2, 1, nan, negZero},
		{nan, 1, -2, nan, negZero},
		{nan},
		{inf, 1, -1, 0},
		{-inf, inf, nan, 3},
	}
	r := rng.New(20260926)
	for n := 1; n <= 1<<12; n *= 2 {
		v := make([]float32, n+r.Intn(n))
		scale := math.Exp(r.NormFloat64() * 8)
		for i := range v {
			v[i] = float32(r.NormFloat64() * scale)
		}
		cases = append(cases, v)
	}
	for ci, v := range cases {
		got, want := Quantize8(v), quantize8Branchy(v)
		if math.Float32bits(got.Scale) != math.Float32bits(want.Scale) {
			t.Fatalf("case %d: scale %x, reference %x", ci, math.Float32bits(got.Scale), math.Float32bits(want.Scale))
		}
		for i := range want.Q {
			if got.Q[i] != want.Q[i] {
				t.Fatalf("case %d: element %d (%v) quantized to %d, reference %d", ci, i, v[i], got.Q[i], want.Q[i])
			}
		}
	}
}

// TestQuantize8MaxFloat32StaysFinite: a finite gradient must dequantize to
// finite values. With a maximum of ±MaxFloat32 the scale maxAbs/127 rounds
// up and scale·127 is +Inf; Quantize8 steps the scale down one ulp there,
// and nowhere else.
func TestQuantize8MaxFloat32StaysFinite(t *testing.T) {
	const big = math.MaxFloat32
	naive := float32(big) / 127
	if s := naive * 127; !math.IsInf(float64(s), 1) {
		t.Fatalf("premise gone: (MaxFloat32/127)·127 = %v is finite", s)
	}
	for _, v := range [][]float32{
		{big}, {-big}, {big, -big},
		{1e-3, -big, 0.5, 3, float32(math.Copysign(0, -1))},
		{big, big / 2, -big / 4, 1e30},
	} {
		q := Quantize8(v)
		if got, want := math.Float32bits(q.Scale), math.Float32bits(naive)-1; got != want {
			t.Fatalf("%v: scale bits %x, want one ulp under MaxFloat32/127 (%x)", v, got, want)
		}
		out := make([]float32, len(v))
		if err := Dequantize8(q, out); err != nil {
			t.Fatal(err)
		}
		rt := append([]float32(nil), v...)
		QuantizeRoundTrip(rt)
		for i, x := range v {
			if math.IsInf(float64(out[i]), 0) || math.IsNaN(float64(out[i])) {
				t.Fatalf("%v: element %d dequantized to %v", v, i, out[i])
			}
			if math.Float32bits(rt[i]) != math.Float32bits(out[i]) {
				t.Fatalf("%v: element %d round trip %v, dequantize %v", v, i, rt[i], out[i])
			}
			if err := math.Abs(float64(x) - float64(out[i])); err > big/254*(1+1e-6) {
				t.Fatalf("%v: element %d came back as %v, off by more than half a step", v, i, out[i])
			}
		}
	}
	// One binade down nothing overflows and the scale is the plain quotient.
	if q := Quantize8([]float32{big / 2}); q.Scale != float32(big/2)/127 {
		t.Fatalf("scale for MaxFloat32/2 = %v, want the unadjusted quotient", q.Scale)
	}
}
