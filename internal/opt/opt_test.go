package opt

import (
	"math"
	"testing"
	"testing/quick"

	"disttrain/internal/rng"
)

func TestSGDNoMomentumIsPlainSGD(t *testing.T) {
	s := NewSGD(2, 0, 0)
	p := []float32{1, 2}
	g := []float32{0.5, -0.5}
	s.Step(p, g, 0.1)
	if math.Abs(float64(p[0])-0.95) > 1e-6 || math.Abs(float64(p[1])-2.05) > 1e-6 {
		t.Fatalf("p = %v", p)
	}
}

func TestSGDMomentumAccumulates(t *testing.T) {
	s := NewSGD(1, 0.9, 0)
	p := []float32{0}
	g := []float32{1}
	s.Step(p, g, 1) // v=1, p=-1
	s.Step(p, g, 1) // v=1.9, p=-2.9
	if math.Abs(float64(p[0])+2.9) > 1e-6 {
		t.Fatalf("p = %v, want -2.9", p[0])
	}
	if math.Abs(float64(s.Velocity()[0])-1.9) > 1e-6 {
		t.Fatalf("v = %v, want 1.9", s.Velocity()[0])
	}
}

func TestSGDWeightDecayPullsTowardZero(t *testing.T) {
	s := NewSGD(1, 0, 0.1)
	p := []float32{10}
	g := []float32{0}
	s.Step(p, g, 0.5)
	if p[0] != 9.5 {
		t.Fatalf("p = %v, want 9.5", p[0])
	}
}

func TestStepSegmentMatchesFullStep(t *testing.T) {
	r := rng.New(1)
	n := 40
	p1 := make([]float32, n)
	p2 := make([]float32, n)
	g := make([]float32, n)
	for i := range p1 {
		p1[i] = float32(r.NormFloat64())
		p2[i] = p1[i]
		g[i] = float32(r.NormFloat64())
	}
	full := NewSGD(n, 0.9, 0.01)
	sharded := NewSGD(n, 0.9, 0.01)
	for step := 0; step < 3; step++ {
		full.Step(p1, g, 0.1)
		// apply in three segments, any order
		sharded.StepSegment(p2, g, 0.1, 20, 10)
		sharded.StepSegment(p2, g, 0.1, 0, 20)
		sharded.StepSegment(p2, g, 0.1, 30, 10)
	}
	for i := range p1 {
		if math.Abs(float64(p1[i]-p2[i])) > 1e-6 {
			t.Fatalf("segmented update diverged at %d: %v vs %v", i, p1[i], p2[i])
		}
	}
}

// TestStepAtScaleMatchesSeparatePass: folding the averaging scale into the
// step must give, bit for bit, what scaling the gradient in a pass of its own
// and then stepping gave — parameters and velocity, over several steps so the
// momentum carries any slip forward, for the scales a ring produces (1/3 and
// 1/7 are inexact), for 1 (every caller that averages nothing), and on
// gradients salted with −0, denormals, ±Inf and NaN. The gradient itself must
// come back untouched.
func TestStepAtScaleMatchesSeparatePass(t *testing.T) {
	r := rng.New(2)
	const n, off = 257, 19
	for _, scale := range []float32{1, 0.5, 1.0 / 3, 1.0 / 7, 0.25} {
		p1, p2 := make([]float32, n), make([]float32, n)
		for i := range p1 {
			p1[i] = float32(r.NormFloat64())
			p2[i] = p1[i]
		}
		fused, separate := NewSGD(n+off, 0.9, 1e-4), NewSGD(n+off, 0.9, 1e-4)
		for step := 0; step < 4; step++ {
			g := make([]float32, n)
			for i := range g {
				g[i] = float32(r.NormFloat64() * 3)
			}
			g[3] = float32(math.Copysign(0, -1))
			g[5] = math.Float32frombits(1 + uint32(r.Intn(1<<20))) // denormal
			if step == 3 {
				g[7], g[11], g[13] = float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN())
			}
			before := append([]float32(nil), g...)
			fused.StepAt(p1, g, scale, 0.05, off)
			for i := range g {
				if math.Float32bits(g[i]) != math.Float32bits(before[i]) {
					t.Fatalf("scale %v: StepAt wrote gradient %d", scale, i)
				}
			}
			for i := range g {
				g[i] *= scale
			}
			separate.StepAt(p2, g, 1, 0.05, off)
		}
		v1, v2 := fused.Velocity(), separate.Velocity()
		for i := range p1 {
			if math.Float32bits(p1[i]) != math.Float32bits(p2[i]) ||
				math.Float32bits(v1[off+i]) != math.Float32bits(v2[off+i]) {
				t.Fatalf("scale %v element %d: fused p=%x v=%x, scale-then-step p=%x v=%x", scale, i,
					math.Float32bits(p1[i]), math.Float32bits(v1[off+i]), math.Float32bits(p2[i]), math.Float32bits(v2[off+i]))
			}
		}
	}
}

func TestSGDStepPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSGD(3, 0, 0).Step([]float32{1, 2}, []float32{1, 2}, 0.1)
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	// minimize f(w) = 0.5*||w - target||^2 ; grad = w - target
	target := []float32{3, -2, 7}
	w := []float32{0, 0, 0}
	s := NewSGD(3, 0.9, 0)
	g := make([]float32, 3)
	for i := 0; i < 200; i++ {
		for j := range g {
			g[j] = w[j] - target[j]
		}
		s.Step(w, g, 0.05)
	}
	for j := range w {
		if math.Abs(float64(w[j]-target[j])) > 1e-2 {
			t.Fatalf("w = %v, want %v", w, target)
		}
	}
}

func TestScheduleWarmupRampsUp(t *testing.T) {
	s := Schedule{Base: 1.0, WarmupIters: 100}
	if got := s.At(0); math.Abs(float64(got)-0.1) > 1e-6 {
		t.Fatalf("At(0) = %v, want 0.1", got)
	}
	if got := s.At(50); math.Abs(float64(got)-0.55) > 1e-6 {
		t.Fatalf("At(50) = %v, want 0.55", got)
	}
	if got := s.At(100); got != 1.0 {
		t.Fatalf("At(100) = %v, want 1", got)
	}
	// monotone during warmup
	prev := float32(0)
	for i := 0; i <= 100; i++ {
		v := s.At(i)
		if v < prev {
			t.Fatalf("warmup not monotone at %d", i)
		}
		prev = v
	}
}

func TestScheduleStepDecay(t *testing.T) {
	s := Schedule{Base: 1.0, DecayAt: []int{10, 20}, DecayFactor: 0.1}
	cases := []struct {
		t    int
		want float64
	}{{0, 1}, {9, 1}, {10, 0.1}, {19, 0.1}, {20, 0.01}, {1000, 0.01}}
	for _, c := range cases {
		if got := s.At(c.t); math.Abs(float64(got)-c.want) > 1e-7 {
			t.Fatalf("At(%d) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestPaperScheduleLinearScaling(t *testing.T) {
	s := NewPaperSchedule(0.05, 24, 0, nil)
	if got := s.At(0); math.Abs(float64(got)-1.2) > 1e-6 {
		t.Fatalf("scaled base = %v, want 0.05*24 = 1.2", got)
	}
}

func TestClipByL2Norm(t *testing.T) {
	g := []float32{3, 4}
	pre := ClipByL2Norm(g, 1)
	if math.Abs(pre-5) > 1e-6 {
		t.Fatalf("pre-clip norm %v", pre)
	}
	if math.Abs(float64(g[0])-0.6) > 1e-6 || math.Abs(float64(g[1])-0.8) > 1e-6 {
		t.Fatalf("clipped = %v", g)
	}
	// Under the cap: untouched.
	h := []float32{0.1, 0.1}
	ClipByL2Norm(h, 10)
	if h[0] != 0.1 {
		t.Fatal("clip modified in-range vector")
	}
}

func TestClipProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(30)
		g := make([]float32, n)
		for i := range g {
			g[i] = float32(r.NormFloat64() * 10)
		}
		ClipByL2Norm(g, 2.5)
		var s float64
		for _, v := range g {
			s += float64(v) * float64(v)
		}
		return math.Sqrt(s) <= 2.5+1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float32{1, -2, 0}) {
		t.Fatal("finite vector reported non-finite")
	}
	if IsFinite([]float32{1, float32(math.NaN())}) {
		t.Fatal("NaN not detected")
	}
	if IsFinite([]float32{float32(math.Inf(1))}) {
		t.Fatal("Inf not detected")
	}
}

func BenchmarkSGDStep(b *testing.B) {
	n := 1 << 16
	s := NewSGD(n, 0.9, 1e-4)
	p := make([]float32, n)
	g := make([]float32, n)
	for i := range g {
		g[i] = 0.01
	}
	b.SetBytes(int64(n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(p, g, 0.01)
	}
}

func TestCosineScheduleShape(t *testing.T) {
	s := CosineSchedule{Base: 1, WarmupIters: 10, TotalIters: 110, Min: 0.01}
	if got := s.At(0); math.Abs(float64(got)-0.1) > 1e-6 {
		t.Fatalf("At(0) = %v", got)
	}
	if got := s.At(10); got != 1 {
		t.Fatalf("peak = %v", got)
	}
	// Midpoint of the cosine: (Base+Min)/2.
	if got := s.At(60); math.Abs(float64(got)-0.505) > 1e-3 {
		t.Fatalf("mid = %v", got)
	}
	if got := s.At(110); math.Abs(float64(got)-0.01) > 1e-6 {
		t.Fatalf("end = %v", got)
	}
	if got := s.At(500); math.Abs(float64(got)-0.01) > 1e-6 {
		t.Fatalf("beyond horizon = %v", got)
	}
	// Monotone decreasing after warm-up.
	prev := s.At(10)
	for i := 11; i <= 110; i++ {
		v := s.At(i)
		if v > prev+1e-7 {
			t.Fatalf("cosine not decreasing at %d", i)
		}
		prev = v
	}
}

func TestCosineDegenerateHorizon(t *testing.T) {
	s := CosineSchedule{Base: 0.5, WarmupIters: 5, TotalIters: 5}
	if got := s.At(7); got != 0.5 {
		t.Fatalf("degenerate horizon = %v", got)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	target := []float32{3, -2, 7}
	w := []float32{0, 0, 0}
	a := NewAdam(3, 0)
	g := make([]float32, 3)
	for i := 0; i < 3000; i++ {
		for j := range g {
			g[j] = w[j] - target[j]
		}
		a.Step(w, g, 0.05)
	}
	for j := range w {
		if math.Abs(float64(w[j]-target[j])) > 0.05 {
			t.Fatalf("adam w = %v, want %v", w, target)
		}
	}
}

func TestAdamFirstStepIsLRSized(t *testing.T) {
	// With bias correction, the very first step has magnitude ~lr regardless
	// of gradient scale.
	for _, scale := range []float32{0.001, 1, 1000} {
		a := NewAdam(1, 0)
		p := []float32{0}
		a.Step(p, []float32{scale}, 0.1)
		if math.Abs(float64(p[0])+0.1) > 1e-3 {
			t.Fatalf("scale %v: first step %v, want ~-0.1", scale, p[0])
		}
	}
}

func TestAdamStepPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAdam(3, 0).Step([]float32{1}, []float32{1}, 0.1)
}

func TestAdamWeightDecay(t *testing.T) {
	a := NewAdam(1, 0.5)
	p := []float32{10}
	a.Step(p, []float32{0}, 0.1)
	if p[0] >= 10 {
		t.Fatalf("weight decay did not shrink param: %v", p[0])
	}
}
