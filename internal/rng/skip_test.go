package rng

import "testing"

// checkSkip holds Skip(n) from state to n calls of Uint64 from it.
func checkSkip(t *testing.T, state [4]uint64, n uint64) {
	t.Helper()
	var a, b RNG
	a.SetState(state)
	b.SetState(state)
	a.Skip(n)
	for range n {
		b.Uint64()
	}
	if a.State() != b.State() {
		t.Fatalf("state %x: Skip(%d) left %x, %d steps %x", state, n, a.State(), n, b.State())
	}
}

// randomState is four words of src: a state no seed path produces.
func randomState(src *RNG) [4]uint64 {
	return [4]uint64{src.Uint64(), src.Uint64(), src.Uint64(), src.Uint64()}
}

// TestSkipMatchesStepping covers the lengths the split draws jump by (a
// normal pair, one shapes16 image and a 4 000-image dataset) and random
// lengths up to 10⁶.
func TestSkipMatchesStepping(t *testing.T) {
	src := New(5)
	for _, n := range []uint64{0, 1, 2, 517, 518, 518 * 4000} {
		for range 3 {
			checkSkip(t, randomState(src), n)
		}
	}
	for range 20 {
		checkSkip(t, randomState(src), uint64(src.Intn(1_000_001)))
	}
}

// TestSkipComposes holds Skip(a) then Skip(b) to Skip(a+b) where stepping
// is out of reach, at a and b near 2⁴⁰.
func TestSkipComposes(t *testing.T) {
	src := New(6)
	for range 10 {
		st := randomState(src)
		a := 1<<40 + uint64(src.Intn(1<<20)) - 1<<19
		b := 1<<40 + uint64(src.Intn(1<<20)) - 1<<19
		var two, one RNG
		two.SetState(st)
		one.SetState(st)
		two.Skip(a)
		two.Skip(b)
		one.Skip(a + b)
		if two.State() != one.State() {
			t.Fatalf("state %x: Skip(%d)+Skip(%d) left %x, Skip(%d) %x", st, a, b, two.State(), a+b, one.State())
		}
	}
}

// TestSkipJumpConstants checks charPoly against xoshiro256's published
// jump() and long_jump() polynomials: x^(2^128) and x^(2^192) mod p.
func TestSkipJumpConstants(t *testing.T) {
	for _, c := range []struct {
		log2 int
		want poly
	}{
		{128, poly{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}},
		{192, poly{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}},
	} {
		p := poly{2} // x
		for range c.log2 {
			p = p.squared()
		}
		if p != c.want {
			t.Errorf("x^(2^%d) mod p = %#x, published %#x", c.log2, p, c.want)
		}
	}
}

func FuzzSkip(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint64(3), uint64(4), uint32(518))
	f.Add(uint64(0x0123456789abcdef), uint64(0), uint64(0xfedcba9876543210), uint64(7), uint32(0))
	f.Add(uint64(0), uint64(0), uint64(0), uint64(0), uint32(99_999))
	f.Fuzz(func(t *testing.T, s0, s1, s2, s3 uint64, n uint32) {
		checkSkip(t, [4]uint64{s0, s1, s2, s3}, uint64(n%100_001))
	})
}

func BenchmarkSkip(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.Skip(518 * 4000)
	}
}
