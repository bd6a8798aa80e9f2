package data

import (
	"fmt"
	"math"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// ShapeClasses is the number of classes in the shapes16 dataset.
const ShapeClasses = 8

// GenShapes16 generates n 16×16 grayscale images of procedurally drawn
// shapes (8 classes: disk, square, cross, ring, X, horizontal stripes,
// vertical bar, checkerboard) with randomized position, size, contrast and
// additive pixel noise. It is the stand-in for ImageNet in the accuracy
// experiments: easy enough that a mini-CNN reaches high accuracy with good
// training, hard enough that degraded aggregation visibly costs accuracy.
func GenShapes16(r *rng.RNG, n int) *Dataset {
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
		cx := 5 + r.Float64()*6 // center jitter
		cy := 5 + r.Float64()*6
		rad := 2.5 + r.Float64()*3
		amp := float32(0.7 + 0.6*r.Float64())
		phase := r.Intn(2)
		drawShape(img, s, cls, cx, cy, rad, amp, phase)
		// additive noise + contrast jitter
		for j := range img {
			img[j] += float32(r.NormFloat64()) * 0.15
		}
		copy(x.Data[i*s*s:(i+1)*s*s], img)
	}
	return &Dataset{Name: "shapes16", X: x, Y: y, Classes: ShapeClasses}
}

func drawShape(img []float32, s, cls int, cx, cy, rad float64, amp float32, phase int) {
	set := func(xx, yy int, v float32) {
		if xx >= 0 && xx < s && yy >= 0 && yy < s {
			img[yy*s+xx] = v
		}
	}
	switch cls {
	case 0: // filled disk
		for yy := 0; yy < s; yy++ {
			for xx := 0; xx < s; xx++ {
				dx, dy := float64(xx)-cx, float64(yy)-cy
				if dx*dx+dy*dy <= rad*rad {
					set(xx, yy, amp)
				}
			}
		}
	case 1: // filled square
		h := int(rad)
		for yy := int(cy) - h; yy <= int(cy)+h; yy++ {
			for xx := int(cx) - h; xx <= int(cx)+h; xx++ {
				set(xx, yy, amp)
			}
		}
	case 2: // plus / cross
		h := int(rad) + 1
		for d := -h; d <= h; d++ {
			set(int(cx)+d, int(cy), amp)
			set(int(cx)+d, int(cy)+1, amp)
			set(int(cx), int(cy)+d, amp)
			set(int(cx)+1, int(cy)+d, amp)
		}
	case 3: // ring (annulus)
		for yy := 0; yy < s; yy++ {
			for xx := 0; xx < s; xx++ {
				dx, dy := float64(xx)-cx, float64(yy)-cy
				d2 := dx*dx + dy*dy
				if d2 <= rad*rad && d2 >= (rad-1.8)*(rad-1.8) {
					set(xx, yy, amp)
				}
			}
		}
	case 4: // X (two diagonals)
		h := int(rad) + 1
		for d := -h; d <= h; d++ {
			set(int(cx)+d, int(cy)+d, amp)
			set(int(cx)+d, int(cy)-d, amp)
			set(int(cx)+d+1, int(cy)+d, amp)
			set(int(cx)+d+1, int(cy)-d, amp)
		}
	case 5: // horizontal stripes
		for yy := phase; yy < s; yy += 3 {
			for xx := 0; xx < s; xx++ {
				set(xx, yy, amp)
			}
		}
	case 6: // vertical bar
		w := 1 + int(rad/2)
		for yy := 0; yy < s; yy++ {
			for xx := int(cx) - w; xx <= int(cx)+w; xx++ {
				set(xx, yy, amp)
			}
		}
	case 7: // checkerboard
		cell := 2 + phase
		for yy := 0; yy < s; yy++ {
			for xx := 0; xx < s; xx++ {
				if ((xx/cell)+(yy/cell))%2 == 0 {
					set(xx, yy, amp)
				}
			}
		}
	default:
		panic(fmt.Sprintf("data: shape class %d out of range", cls))
	}
}

// GenGauss generates n 2-D points in `classes` Gaussian clusters arranged on
// a circle. The fastest learnable task in the repo; used by unit tests.
func GenGauss(r *rng.RNG, n, classes int, noise float64) *Dataset {
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := r.Intn(classes)
		y[i] = cls
		theta := 2 * math.Pi * float64(cls) / float64(classes)
		x.Data[i*2] = float32(2*math.Cos(theta) + r.NormFloat64()*noise)
		x.Data[i*2+1] = float32(2*math.Sin(theta) + r.NormFloat64()*noise)
	}
	return &Dataset{Name: "gauss", X: x, Y: y, Classes: classes}
}

// GenSpiral generates the classic interleaved-spirals task with the given
// number of arms (classes). Nonlinear, so it requires a hidden layer —
// useful when a test must distinguish real learning from chance.
func GenSpiral(r *rng.RNG, n, arms int, noise float64) *Dataset {
	x := tensor.New(n, 2)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		cls := r.Intn(arms)
		y[i] = cls
		t := r.Float64() * 2.5 // radius parameter
		theta := 2*math.Pi*float64(cls)/float64(arms) + t*2.2
		x.Data[i*2] = float32(t*math.Cos(theta) + r.NormFloat64()*noise)
		x.Data[i*2+1] = float32(t*math.Sin(theta) + r.NormFloat64()*noise)
	}
	return &Dataset{Name: "spiral", X: x, Y: y, Classes: arms}
}

// Names lists the datasets ByName knows, in CLI order.
var Names = []string{"shapes16", "gauss", "spiral"}

// ByName builds a dataset generator by CLI name (one of Names).
func ByName(name string, r *rng.RNG, n int) (*Dataset, error) {
	switch name {
	case "shapes16":
		return GenShapes16(r, n), nil
	case "gauss":
		return GenGauss(r, n, 4, 0.5), nil
	case "spiral":
		return GenSpiral(r, n, 3, 0.1), nil
	default:
		return nil, fmt.Errorf("data: unknown dataset %q", name)
	}
}
