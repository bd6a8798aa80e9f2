package tensor

import (
	"fmt"
	"math"
	"math/bits"
	"testing"

	"disttrain/internal/rng"
)

// normLoop is the specification FillNormal is held to: len(dst) calls of
// NormFloat64.
func normLoop(dst []float64, r *rng.RNG) {
	for i := range dst {
		dst[i] = r.NormFloat64()
	}
}

func sameF64(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// checkFillNormal compares FillNormal against normLoop from the same state
// over n elements: every value's bits and the generator's final state.
func checkFillNormal(t *testing.T, state [4]uint64, n int) {
	t.Helper()
	var a, b rng.RNG
	a.SetState(state)
	b.SetState(state)
	got, want := make([]float64, n), make([]float64, n)
	FillNormal(got, &a)
	normLoop(want, &b)
	for i := range want {
		if !sameF64(got[i], want[i]) {
			t.Fatalf("state %x, n %d: element %d is %v (%#x), NormFloat64 gives %v (%#x)",
				state, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
	if a.State() != b.State() {
		t.Fatalf("state %x, n %d: FillNormal left the stream at %x, NormFloat64 at %x", state, n, a.State(), b.State())
	}
}

// fillNormalLengths covers every length up to two blocks and change, and
// both sides of FillNormal's and RandNormal's block boundaries.
func fillNormalLengths() []int {
	var ns []int
	for n := 0; n <= 130; n++ {
		ns = append(ns, n)
	}
	return append(ns, 255, 256, 257, 511, 512, 513, 4099)
}

func runFillNormalChecks(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		state := rng.New(seed).State()
		for _, n := range fillNormalLengths() {
			checkFillNormal(t, state, n)
		}
	}
}

func TestFillNormalMatchesNormFloat64(t *testing.T) { runFillNormalChecks(t) }

func TestFillNormalReferencePath(t *testing.T) {
	withoutAVX2(func() { runFillNormalChecks(t) })
}

// TestFillNormalRedrawsZero starts from a state whose next output is 0, so
// the first u is 0 and must be redrawn, as NormFloat64 does.
func TestFillNormalRedrawsZero(t *testing.T) {
	state := [4]uint64{0x0123456789abcdef, 0, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978}
	var r rng.RNG
	r.SetState(state)
	if r.Uint64() != 0 {
		t.Fatal("crafted state does not open with a zero output")
	}
	var three rng.RNG
	three.SetState(state)
	three.Uint64()
	three.Uint64()
	three.Uint64()
	r.SetState(state)
	r.NormFloat64()
	if r.State() != three.State() {
		t.Fatal("NormFloat64 from the crafted state did not draw three words: the redraw path did not run")
	}
	for _, n := range []int{1, 4, 5, 64, 65} {
		checkFillNormal(t, state, n)
	}
	// Split draws: the zero word is the u of a normal five pairs into the
	// first or the second segment, so the segments after it start one word
	// late and are drawn again.
	defer gemmForceProcs.Store(0)
	const n = 4 * drawMinWords / 2
	for _, procs := range []int32{2, 4} {
		gemmForceProcs.Store(procs)
		chunk := n / int(procs)
		for _, at := range []int{5, chunk + 5} {
			start := stateBefore(state, 2*at)
			r.SetState(start)
			if r.Skip(uint64(2 * at)); r.State() != state {
				t.Fatalf("%d words from the stepped-back state do not reach the crafted one", 2*at)
			}
			checkFillNormal(t, start, n)
		}
	}
}

// stateBefore returns the state m Uint64 calls before s, stepping xoshiro256
// backwards: a stream that reaches s after m words.
func stateBefore(s [4]uint64, m int) [4]uint64 {
	for range m {
		u := bits.RotateLeft64(s[3], -45) // s3 ^ s1 before the step
		v := s[1] ^ s[2]                  // s1 ^ s1<<17
		s1 := v ^ v<<17 ^ v<<34 ^ v<<51
		s0 := s[0] ^ u
		s = [4]uint64{s0, s1, s[1] ^ s1 ^ s0, u ^ s1}
	}
	return s
}

// TestSplitDrawMatchesSerial holds FillNormal and RandNormal at 2, 3 and 8
// segments to the serial draw, on lengths that do and do not divide evenly.
func TestSplitDrawMatchesSerial(t *testing.T) {
	defer gemmForceProcs.Store(0)
	state := rng.New(4).State()
	for _, procs := range []int32{2, 3, 8} {
		gemmForceProcs.Store(procs)
		for _, n := range []int{drawMinWords, 3*drawMinWords + 7} {
			checkFillNormal(t, state, n)
			a, b := New(n), New(n)
			var ra, rb rng.RNG
			ra.SetState(state)
			rb.SetState(state)
			a.RandNormal(&ra, 0.37)
			parentRandNormal(b, &rb, 0.37)
			sameBits(t, "split RandNormal", a.Data, b.Data)
			if ra.State() != rb.State() {
				t.Fatalf("procs %d, n %d: RandNormal left the stream at %x, the serial draw at %x", procs, n, ra.State(), rb.State())
			}
		}
	}
}

// checkKernel runs boxMullerAVX2 over the pairs (u[i], v[i]), padded to a
// multiple of 4, against rng.BoxMuller.
func checkKernel(t *testing.T, what string, u, v []float64) {
	t.Helper()
	if !hasAVX2 {
		t.Skip("no AVX2")
	}
	for len(u)%4 != 0 {
		u, v = append(u, 0.5), append(v, 0.5)
	}
	got := make([]float64, len(u))
	boxMullerAVX2(&got[0], &u[0], &v[0], len(u))
	for i := range u {
		if want := rng.BoxMuller(u[i], v[i]); !sameF64(got[i], want) {
			t.Errorf("%s: BoxMuller(%v [%#x], %v [%#x]) kernel %v, reference %v",
				what, u[i], math.Float64bits(u[i]), v[i], math.Float64bits(v[i]), got[i], want)
		}
	}
}

// around returns x and its k nearest neighbours on each side, clipped to
// [lo, hi).
func around(x float64, k int, lo, hi float64) []float64 {
	var out []float64
	y := x
	for i := 0; i < k; i++ {
		y = math.Nextafter(y, math.Inf(-1))
	}
	for i := 0; i <= 2*k; i++ {
		if y >= lo && y < hi {
			out = append(out, y)
		}
		y = math.Nextafter(y, math.Inf(1))
	}
	return out
}

// TestBoxMullerKernelEdges aims the kernel at the boundaries of its two
// references: archLog's halving test (f1 <= Sqrt2/2, at Sqrt2/2 itself and
// at every smaller power of two), the smallest u a draw can give, and
// math.cos's octant boundaries (where truncation of x·4/π and the
// round-up to even change octant), with v = 0.
func TestBoxMullerKernelEdges(t *testing.T) {
	const minU = 1.0 / (1 << 53)
	var us []float64
	for e := 0; e <= 53; e++ {
		p := math.Ldexp(1, -e)
		us = append(us, around(math.Sqrt2/2*p, 2, minU, 1)...)
		us = append(us, around(p, 2, minU, 1)...)
	}
	us = append(us, minU, 0.5, 0.75, math.Nextafter(1, 0))
	vs := []float64{0, math.Nextafter(1, 0)}
	for k := 1; k < 8; k++ {
		vs = append(vs, around(float64(k)/8, 4, 0, 1)...)
	}
	// Every u against a spread of v, and every v against a spread of u.
	var u, v []float64
	for i, x := range us {
		u, v = append(u, x), append(v, vs[i%len(vs)])
	}
	for i, y := range vs {
		u, v = append(u, us[(7*i)%len(us)]), append(v, y)
	}
	checkKernel(t, "edges", u, v)
}

// TestBoxMullerKernelRandom covers u across its whole exponent range, not
// just the top binades a uniform draw lands in.
func TestBoxMullerKernelRandom(t *testing.T) {
	r := rng.New(11)
	const n = 1 << 16
	u, v := make([]float64, n), make([]float64, n)
	for i := range u {
		u[i] = math.Ldexp(1+r.Float64(), -1-r.Intn(52)) // [2⁻⁵², 1)
		v[i] = r.Float64()
	}
	checkKernel(t, "random", u, v)
}

func FuzzFillNormal(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint16(65))
	f.Add(uint64(0x0123456789abcdef), uint64(0), uint64(0xfedcba9876543210), uint64(7), uint16(5))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint16(0))
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 uint64, n uint16) {
		checkFillNormal(t, [4]uint64{s0, s1, s2, s3}, int(n)%1100)
	})
}

func TestFillNormalAllocatesNothing(t *testing.T) {
	r := rng.New(1)
	dst := make([]float64, 1000)
	if a := testing.AllocsPerRun(10, func() { FillNormal(dst, r) }); a != 0 {
		t.Errorf("FillNormal: %v allocations per call", a)
	}
	w := New(37, 29)
	if a := testing.AllocsPerRun(10, func() { w.RandNormal(r, 0.1) }); a != 0 {
		t.Errorf("RandNormal: %v allocations per call", a)
	}
}

// parentRandNormal is RandNormal as it was before FillNormal: one
// NormFloat64 per element.
func parentRandNormal(t *Tensor, r *rng.RNG, std float64) {
	for i := range t.Data {
		t.Data[i] = float32(r.NormFloat64() * std)
	}
}

func TestRandNormalMatchesParent(t *testing.T) {
	for _, n := range []int{1, 255, 256, 257, 1000} {
		a, b := New(n), New(n)
		ra, rb := rng.New(uint64(n)), rng.New(uint64(n))
		a.RandNormal(ra, 0.37)
		parentRandNormal(b, rb, 0.37)
		sameBits(t, "RandNormal", a.Data, b.Data)
		if ra.State() != rb.State() {
			t.Fatalf("n %d: stream states differ", n)
		}
	}
}

// BenchmarkFillNormal times FillNormal beside the NormFloat64 loop it
// replaces (parent), and the uniform draw alone (draw: BoxMullerInputs into
// two arrays, the part of FillNormal outside the kernel). Run with -cpu 1:
// a model is built on one core.
func BenchmarkFillNormal(b *testing.B) {
	dst, v := make([]float64, 4096), make([]float64, 4096)
	for _, bm := range []struct {
		name string
		fill func([]float64, *rng.RNG)
	}{
		{"kernel", func(dst []float64, r *rng.RNG) { FillNormal(dst, r) }},
		{"parent", normLoop},
		{"draw", func(u []float64, r *rng.RNG) { r.BoxMullerInputs(u, v) }},
	} {
		b.Run(bm.name, func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				bm.fill(dst, r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(dst)), "ns/normal")
		})
	}
}

// BenchmarkRandNormal times a layer's He initialisation at MiniVGG's fc1
// size (65 K) and at the wide MLP's total (3.15 M), beside the parent loop.
func BenchmarkRandNormal(b *testing.B) {
	for _, n := range []int{1 << 16, 3_150_000} {
		w := New(n)
		for _, bm := range []struct {
			name string
			fill func(*Tensor, *rng.RNG, float64)
		}{{"kernel", (*Tensor).RandNormal}, {"parent", parentRandNormal}} {
			b.Run(fmt.Sprintf("%d/%s", n, bm.name), func(b *testing.B) {
				r := rng.New(1)
				for i := 0; i < b.N; i++ {
					bm.fill(w, r, 0.05)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/normal")
			})
		}
	}
}
