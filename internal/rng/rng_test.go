package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(123), New(123)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between adjacent seeds", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(9)
	c1 := parent.Split(1)
	c2 := parent.Split(1) // same label, later parent state -> still distinct
	c3 := parent.Split(2)
	a, b, c := c1.Uint64(), c2.Uint64(), c3.Uint64()
	if a == b || a == c || b == c {
		t.Fatalf("split streams collide: %d %d %d", a, b, c)
	}
}

func TestSplitDeterminism(t *testing.T) {
	mk := func() uint64 {
		return New(4).Split(7).Uint64()
	}
	if mk() != mk() {
		t.Fatal("Split is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(12)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Fatalf("mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(13)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Fatalf("Intn(7) only produced %d distinct values", len(seen))
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Intn(0)
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64) bool {
		r := New(seed)
		n := 1 + r.Intn(50)
		p := r.Perm(n)
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(21)
	xs := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	for _, v := range xs {
		sum += v
	}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum2 := 0
	for _, v := range xs {
		sum2 += v
	}
	if sum != sum2 {
		t.Fatalf("shuffle changed contents: %v", xs)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(33)
	const n = 200000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sq += v * v
	}
	mean := sum / n
	variance := sq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Fatalf("normal mean = %v", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Fatalf("normal variance = %v", variance)
	}
}

// TestBoxMullerInputsAreNormFloat64Draws holds the bulk draw to the
// per-call definition it replaced: u = Float64() redrawn while 0, then v =
// Float64(), one pair per variate, and the same stream position after.
func TestBoxMullerInputsAreNormFloat64Draws(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 1000} {
		a, b := New(uint64(n)+5), New(uint64(n)+5)
		u, v := make([]float64, n), make([]float64, n)
		a.BoxMullerInputs(u, v)
		for i := 0; i < n; i++ {
			wu := b.Float64()
			for wu == 0 {
				wu = b.Float64()
			}
			wv := b.Float64()
			if u[i] != wu || v[i] != wv {
				t.Fatalf("n %d: pair %d is (%v, %v), per-call draws give (%v, %v)", n, i, u[i], v[i], wu, wv)
			}
			if got, want := BoxMuller(u[i], v[i]), math.Sqrt(-2*math.Log(wu))*math.Cos(2*math.Pi*wv); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("BoxMuller(%v, %v) = %v, want %v", u[i], v[i], got, want)
			}
		}
		if a.State() != b.State() {
			t.Fatalf("n %d: stream at %x after the bulk draw, %x after the calls", n, a.State(), b.State())
		}
	}
}

func TestBernoulliRate(t *testing.T) {
	r := New(44)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	rate := float64(hits) / n
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("Bernoulli(0.3) rate = %v", rate)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}
