package tensor

import (
	"fmt"
	"testing"

	"disttrain/internal/rng"
)

// baselineMatMul is the pre-blocking serial kernel (ikj loop with the old
// zero-skip), kept verbatim as the reference point for the blocked/parallel
// kernels' speedup claims.
func baselineMatMul(a, b, c *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	ad, bd, cd := a.Data, b.Data, c.Data
	for i := 0; i < m; i++ {
		ci := cd[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
		ai := ad[i*k : i*k+k]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := bd[p*n : p*n+n]
			for j, bv := range bp {
				ci[j] += av * bv
			}
		}
	}
}

// gemmBenchSizes are GEMM shapes from the paper's cost models: ResNet-50
// 3×3 conv at 14×14 (im2col form), an early VGG-16-style conv at 56×56, and
// the fully-connected classifier of a VGG-style head.
var gemmBenchSizes = []struct {
	name    string
	m, k, n int
}{
	{"ResNet50Conv_256x2304x196", 256, 2304, 196},
	{"VGG16Conv_128x1152x3136", 128, 1152, 3136},
	{"DenseHead_256x4096x100", 256, 4096, 100},
}

func BenchmarkGemm(b *testing.B) {
	for _, s := range gemmBenchSizes {
		r := rng.New(1)
		a := New(s.m, s.k)
		bb := New(s.k, s.n)
		c := New(s.m, s.n)
		a.RandNormal(r, 1)
		bb.RandNormal(r, 1)
		flops := 2 * s.m * s.k * s.n

		b.Run(s.name+"/baseline", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				baselineMatMul(a, bb, c)
			}
			reportGFLOPS(b, flops)
		})
		b.Run(s.name+"/blocked", func(b *testing.B) {
			gemmForceProcs.Store(1)
			defer gemmForceProcs.Store(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MatMul(a, bb, c)
			}
			reportGFLOPS(b, flops)
		})
		b.Run(s.name+"/parallel", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MatMul(a, bb, c)
			}
			reportGFLOPS(b, flops)
		})
	}
}

func BenchmarkGemmTransA(b *testing.B) {
	s := gemmBenchSizes[0]
	r := rng.New(1)
	a := New(s.k, s.m)
	bb := New(s.k, s.n)
	c := New(s.m, s.n)
	a.RandNormal(r, 1)
	bb.RandNormal(r, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransA(a, bb, c)
	}
	reportGFLOPS(b, 2*s.m*s.k*s.n)
}

func BenchmarkGemmTransB(b *testing.B) {
	s := gemmBenchSizes[0]
	r := rng.New(1)
	a := New(s.m, s.k)
	bb := New(s.n, s.k)
	c := New(s.m, s.n)
	a.RandNormal(r, 1)
	bb.RandNormal(r, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulTransB(a, bb, c)
	}
	reportGFLOPS(b, 2*s.m*s.k*s.n)
}

// BenchmarkGemmNarrow times the GEMMs the mini models actually issue — the
// shapes behind the benchmark ladder's tensor.gemm_gflops.miniresnet rung:
// an 8-channel 3×3 conv over a batch of 16 16×16 images (and 16 8×8 ones
// after pooling) forward, its dcols and dW products, and the 16-wide dcols
// of MiniVGG's conv2 for contrast. m/k/n are MatMul's (C is m×n, k terms).
func BenchmarkGemmNarrow(b *testing.B) {
	r := rng.New(1)
	mat := func(rows, cols int) *Tensor {
		t := New(rows, cols)
		t.RandNormal(r, 1)
		return t
	}
	run := func(name string, m, k, n int, f func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f()
			}
			reportGFLOPS(b, 2*m*k*n)
		})
	}
	bias := make([]float32, 8)
	for _, m := range []int{4096, 1024} {
		a, w, c := mat(m, 72), mat(8, 72), New(m, 8)
		run(fmt.Sprintf("TransBFused_%dx72x8", m), m, 72, 8, func() { MatMulBiasReLU(a, w, c, bias) })
	}
	for _, k := range []int{8, 16} {
		a, w, c := mat(4096, k), mat(k, 72), New(4096, 72)
		run(fmt.Sprintf("MatMul_4096x%dx72", k), 4096, k, 72, func() { MatMul(a, w, c) })
	}
	a, bb, c := mat(4096, 8), mat(4096, 72), New(8, 72)
	run("TransA_8x4096x72", 8, 4096, 72, func() { MatMulTransA(a, bb, c) })
}

// BenchmarkGemmSkinny times the GEMMs of a wide dense layer at batch 8 — the
// shapes behind tensor.gemm_gflops.widemlp and the wide-MLP step (256 → 4096
// → 512): forward A·Bᵀ with the fused epilogue, the input gradient A·B and
// the weight gradient Aᵀ·B with k = 8. Each streams the weight matrix once
// per call against a few KFLOPs per byte, so GB/s of weight bytes is the
// number to read; m/k/n are MatMul's.
func BenchmarkGemmSkinny(b *testing.B) {
	r := rng.New(1)
	mat := func(rows, cols int) *Tensor {
		t := New(rows, cols)
		t.RandNormal(r, 1)
		return t
	}
	run := func(name string, m, k, n, weights int, f func()) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				f()
			}
			reportGFLOPS(b, 2*m*k*n)
			b.ReportMetric(4*float64(weights)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
		})
	}
	// The third is MiniVGG's fc1 at batch 16: two 8-row groups.
	for _, s := range [][3]int{{8, 256, 4096}, {8, 4096, 512}, {16, 256, 256}} {
		m, k, n := s[0], s[1], s[2]
		a, w, c, bias := mat(m, k), mat(n, k), New(m, n), make([]float32, n)
		run(fmt.Sprintf("TransBFused_%dx%dx%d", m, k, n), m, k, n, n*k, func() { MatMulBiasReLU(a, w, c, bias) })
	}
	a, w, c := mat(8, 512), mat(512, 4096), New(8, 4096)
	run("MatMul_8x512x4096", 8, 512, 4096, 512*4096, func() { MatMul(a, w, c) })
	for _, s := range [][2]int{{4096, 256}, {512, 4096}} {
		m, n := s[0], s[1]
		dy, x, dw := mat(8, m), mat(8, n), New(m, n)
		run(fmt.Sprintf("TransA_%dx8x%d", m, n), m, 8, n, m*n, func() { MatMulTransA(dy, x, dw) })
	}
}

// convBench is the conv geometry of MiniResNet's residual blocks: 8 channels
// of 16×16, 3×3 kernel, stride 1, pad 1 — the tensor.im2col_gbps rung.
func convBench() (in *Tensor, rows []float32) {
	in = New(8, 16, 16)
	in.RandNormal(rng.New(1), 1)
	return in, make([]float32, 16*16*8*3*3)
}

func BenchmarkIm2colRows(b *testing.B) {
	in, rows := convBench()
	b.SetBytes(int64(4 * len(rows)))
	for i := 0; i < b.N; i++ {
		Im2colRows(in, 3, 3, 1, 1, rows)
	}
}

func BenchmarkCol2imRows(b *testing.B) {
	in, rows := convBench()
	Im2colRows(in, 3, 3, 1, 1, rows)
	b.SetBytes(int64(4 * len(rows)))
	for i := 0; i < b.N; i++ {
		Col2imRows(rows, 8, 16, 16, 3, 3, 1, 1, in)
	}
}

func reportGFLOPS(b *testing.B, flopsPerOp int) {
	b.ReportMetric(float64(flopsPerOp)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

// TestBaselineMatMulAgrees keeps the benchmark baseline honest: it must
// compute the same product as the shipped kernel (on NaN-free input).
func TestBaselineMatMulAgrees(t *testing.T) {
	r := rng.New(5)
	a := randMat(r, 17, 65)
	bb := randMat(r, 65, 13)
	want := New(17, 13)
	MatMul(a, bb, want)
	got := New(17, 13)
	baselineMatMul(a, bb, got)
	if !almostEqual(got.Data, want.Data, 1e-3) {
		t.Fatal("baseline and shipped kernels disagree")
	}
}
