package data

import (
	"math"
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
