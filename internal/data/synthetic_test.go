package data

import (
	"math"
	"math/bits"
	"runtime"
	"slices"
	"testing"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// parentGenShapes16 is GenShapes16 as it was before its pixel noise went
// through tensor.FillNormal: one NormFloat64 per pixel.
func parentGenShapes16(r *rng.RNG, n int) *Dataset {
	const s = 16
	x := tensor.New(n, 1, s, s)
	y := make([]int, n)
	img := make([]float32, s*s)
	for i := 0; i < n; i++ {
		cls := r.Intn(ShapeClasses)
		y[i] = cls
		for j := range img {
			img[j] = 0
		}
		cx := 5 + r.Float64()*6
		cy := 5 + r.Float64()*6
		rad := 2.5 + r.Float64()*3
		amp := float32(0.7 + 0.6*r.Float64())
		phase := r.Intn(2)
		drawShape(img, s, cls, cx, cy, rad, amp, phase)
		for j := range img {
			img[j] += float32(r.NormFloat64()) * 0.15
		}
		copy(x.Data[i*s*s:(i+1)*s*s], img)
	}
	return &Dataset{Name: "shapes16", X: x, Y: y, Classes: ShapeClasses}
}

func TestGenShapes16MatchesParent(t *testing.T) {
	ra, rb := rng.New(8), rng.New(8)
	a, b := GenShapes16(ra, 200), parentGenShapes16(rb, 200)
	for i := range a.X.Data {
		if math.Float32bits(a.X.Data[i]) != math.Float32bits(b.X.Data[i]) {
			t.Fatalf("pixel %d is %v, parent %v", i, a.X.Data[i], b.X.Data[i])
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatalf("label %d is %d, parent %d", i, a.Y[i], b.Y[i])
		}
	}
	if ra.State() != rb.State() {
		t.Fatal("stream states differ after generation")
	}
}

// TestGenShapes16RedrawsZero splits 800 images into 4 segments of 200 and
// starts from a state whose zero word is the u of the fourth pixel's normal
// of image 5 (first segment) or image 205 (second): the segments after the
// zero start one word late and are drawn again. Values, labels and the
// final state must be the serial draw's.
func TestGenShapes16RedrawsZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	zero := [4]uint64{0x0123456789abcdef, 0, 0xfedcba9876543210, 0x0f1e2d3c4b5a6978}
	for _, image := range []int{5, 205} {
		m := image*shapeWords + 6 + 2*3
		start := stateBefore(zero, m)
		var ra, rb rng.RNG
		ra.SetState(start)
		if ra.Skip(uint64(m)); ra.Uint64() != 0 {
			t.Fatalf("word %d of the crafted stream is not 0", m)
		}
		ra.SetState(start)
		rb.SetState(start)
		a, b := GenShapes16(&ra, 800), parentGenShapes16(&rb, 800)
		for i := range a.X.Data {
			if math.Float32bits(a.X.Data[i]) != math.Float32bits(b.X.Data[i]) {
				t.Fatalf("zero in image %d: pixel %d is %v, serial %v", image, i, a.X.Data[i], b.X.Data[i])
			}
		}
		if !slices.Equal(a.Y, b.Y) {
			t.Fatalf("zero in image %d: labels differ from the serial draw", image)
		}
		if ra.State() != rb.State() {
			t.Fatalf("zero in image %d: stream left at %x, serial %x", image, ra.State(), rb.State())
		}
	}
}

// stateBefore returns the state m Uint64 calls before s, stepping
// xoshiro256 backwards: a stream that reaches s after m words.
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

// BenchmarkGenShapes16 times one thousand images, the size of a test split,
// beside the parent generator.
func BenchmarkGenShapes16(b *testing.B) {
	for _, bm := range []struct {
		name string
		gen  func(*rng.RNG, int) *Dataset
	}{{"kernel", GenShapes16}, {"parent", parentGenShapes16}} {
		b.Run(bm.name, func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				bm.gen(r, 1000)
			}
		})
	}
}
