package tensor

import (
	"fmt"
	"testing"

	"disttrain/internal/rng"
)

// BenchmarkConvLayer times forward, weight gradient and input gradient of
// the convolutions the mini models issue (convModelShapes, batch 16), each
// beside the lowered path it replaced (parent: Im2colRows, the GEMM and the
// transposes — parentConv, with the layer's reused buffers; the transpose of
// dy is charged to dW). Run with -cpu 1: a training replica has one core. GFLOPS counts the 2·B·outH·outW·InC·K²·OutC of the
// product, on both sides.
func BenchmarkConvLayer(b *testing.B) {
	for _, cs := range convModelShapes {
		cs.relu = true
		outH, outW := cs.out()
		// Plain normals: a denormal operand costs a microcode assist per
		// product, on either path.
		r := rng.New(1)
		normals := func(n int) []float32 {
			d := make([]float32, n)
			for i := range d {
				d[i] = float32(r.NormFloat64())
			}
			return d
		}
		x, w := normals(cs.b*cs.inC*cs.h*cs.w), normals(cs.outC*cs.inC*cs.k*cs.k)
		bias, dy := normals(cs.outC), normals(cs.b*cs.outC*outH*outW)
		flops := 2 * cs.b * outH * outW * cs.inC * cs.k * cs.k * cs.outC
		c := NewConv(nil, cs.b, cs.inC, cs.h, cs.w, cs.outC, cs.k, cs.stride, cs.pad, true)
		y, dw, dx := make([]float32, len(dy)), make([]float32, len(w)), make([]float32, len(x))
		c.Forward(x, w, bias, true, y)
		parent := newParentConv(cs)
		parent.forward(x, w, bias, y)
		parent.gather(dy)
		name := fmt.Sprintf("%dto%d_%dx%d", cs.inC, cs.outC, cs.h, cs.w)
		for _, bm := range []struct {
			name string
			run  func()
		}{
			{"fwd", func() { c.Forward(x, w, bias, true, y) }},
			{"fwd/parent", func() { parent.forward(x, w, bias, y) }},
			{"dW", func() { c.GradW(dy, dw) }},
			{"dW/parent", func() { parent.gather(dy); parent.gradW(dw) }},
			{"dx", func() { c.GradX(dy, w, dx) }},
			{"dx/parent", func() { parent.gradX(w, dx) }},
		} {
			b.Run(name+"/"+bm.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					bm.run()
				}
				reportGFLOPS(b, flops)
			})
		}
	}
}
