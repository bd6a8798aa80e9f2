package data

import (
	"testing"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

func imageBatch() *tensor.Tensor {
	x := tensor.New(2, 1, 4, 4)
	for i := range x.Data {
		x.Data[i] = float32(i)
	}
	return x
}

func TestAugmentNoOpPolicy(t *testing.T) {
	x := imageBatch()
	want := append([]float32(nil), x.Data...)
	Augment{}.Apply(x, rng.New(1))
	for i := range want {
		if x.Data[i] != want[i] {
			t.Fatal("zero policy modified data")
		}
	}
}

func TestAugmentIgnoresVectors(t *testing.T) {
	x := tensor.New(4, 2)
	x.Fill(3)
	Augment{MaxShift: 2, FlipProb: 1}.Apply(x, rng.New(1))
	for _, v := range x.Data {
		if v != 3 {
			t.Fatal("vector data modified")
		}
	}
}

func TestFlipImage(t *testing.T) {
	img := []float32{1, 2, 3, 4}
	flipImage(img, 1, 2, 2)
	want := []float32{2, 1, 4, 3}
	for i := range want {
		if img[i] != want[i] {
			t.Fatalf("flip = %v", img)
		}
	}
	// flipping twice restores
	flipImage(img, 1, 2, 2)
	if img[0] != 1 || img[3] != 4 {
		t.Fatal("double flip not identity")
	}
}

func TestShiftImage(t *testing.T) {
	img := []float32{
		1, 2,
		3, 4,
	}
	scratch := make([]float32, 4)
	shiftImage(img, scratch, 1, 2, 2, 1, 0) // shift right by 1
	want := []float32{0, 1, 0, 3}
	for i := range want {
		if img[i] != want[i] {
			t.Fatalf("shift = %v, want %v", img, want)
		}
	}
}

func TestShiftPreservesMassWithinBounds(t *testing.T) {
	// A shift never creates new nonzero mass.
	r := rng.New(5)
	x := tensor.New(8, 1, 16, 16)
	for i := range x.Data {
		x.Data[i] = float32(0.5 + 0.5*r.Float64())
	}
	var before float64
	for _, v := range x.Data {
		before += float64(v)
	}
	Augment{MaxShift: 3}.Apply(x, r)
	var after float64
	for _, v := range x.Data {
		after += float64(v)
	}
	if after > before+1e-3 {
		t.Fatalf("augmentation created mass: %v -> %v", before, after)
	}
}

func TestAugmentDeterministic(t *testing.T) {
	a, b := imageBatch(), imageBatch()
	Augment{MaxShift: 1, FlipProb: 0.5}.Apply(a, rng.New(9))
	Augment{MaxShift: 1, FlipProb: 0.5}.Apply(b, rng.New(9))
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatal("augmentation not deterministic for equal streams")
		}
	}
}

func TestAugmentActuallyChangesImages(t *testing.T) {
	x := imageBatch()
	orig := append([]float32(nil), x.Data...)
	Augment{MaxShift: 2, FlipProb: 1}.Apply(x, rng.New(3))
	same := true
	for i := range orig {
		if x.Data[i] != orig[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("aggressive policy left batch untouched")
	}
}
