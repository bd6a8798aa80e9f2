package tensor

import (
	"fmt"
	"math"
	"testing"

	"disttrain/internal/rng"
)

// convCase is one convolution the direct routines are checked on.
type convCase struct {
	b, inC, h, w, outC, k, stride, pad int
	relu                               bool
}

func (cs convCase) String() string {
	return fmt.Sprintf("b=%d %d→%d %dx%d k=%d stride=%d pad=%d relu=%v",
		cs.b, cs.inC, cs.outC, cs.h, cs.w, cs.k, cs.stride, cs.pad, cs.relu)
}

func (cs convCase) out() (outH, outW int) {
	return convOut(cs.h, cs.k, cs.stride, cs.pad), convOut(cs.w, cs.k, cs.stride, cs.pad)
}

// parentConv is nn.Conv2D's Forward and Backward as they stood before the
// direct routines (PR 22), buffers included: the batch lowered into one
// patch-row matrix by Im2colRows, one GEMM per product, activations
// transposed between [B, C, H·W] and the GEMMs' channel-minor rows. Kept
// verbatim as the bit-exact reference (and the benchmark's other side).
type parentConv struct {
	cs               convCase
	cols, dcols      *Tensor // patch rows [B·outH·outW, InC·K·K]
	yt, dyt          *Tensor // channel-minor activations/grads [B·outH·outW, OutC]
	nCols, f         int
	sampleIn, sample int
}

func newParentConv(cs convCase) *parentConv {
	outH, outW := cs.out()
	p := &parentConv{cs: cs, nCols: outH * outW, f: cs.inC * cs.k * cs.k}
	p.sampleIn, p.sample = cs.inC*cs.h*cs.w, cs.outC*p.nCols
	rows := cs.b * p.nCols
	p.cols, p.dcols = New(rows, p.f), New(rows, p.f)
	p.yt, p.dyt = New(rows, cs.outC), New(rows, cs.outC)
	return p
}

func (p *parentConv) forward(x, w, bias, y []float32) {
	cs, nCols, f := p.cs, p.nCols, p.f
	for i := 0; i < cs.b; i++ {
		in3 := FromSlice(x[i*p.sampleIn:(i+1)*p.sampleIn], cs.inC, cs.h, cs.w)
		Im2colRows(in3, cs.k, cs.k, cs.stride, cs.pad, p.cols.Data[i*nCols*f:(i+1)*nCols*f])
	}
	wt := FromSlice(w, cs.outC, f)
	if cs.relu {
		MatMulBiasReLU(p.cols, wt, p.yt, bias)
	} else {
		MatMulBias(p.cols, wt, p.yt, bias)
	}
	for i := 0; i < cs.b; i++ {
		out := y[i*p.sample : (i+1)*p.sample]
		rows := p.yt.Data[i*nCols*cs.outC:]
		for pos := 0; pos < nCols; pos++ {
			src := rows[pos*cs.outC : pos*cs.outC+cs.outC]
			for ch, v := range src {
				out[ch*nCols+pos] = v
			}
		}
	}
}

// gather is the backward pass's transpose of dy into patch-row order.
func (p *parentConv) gather(dy []float32) {
	cs, nCols := p.cs, p.nCols
	for i := 0; i < cs.b; i++ {
		src := dy[i*p.sample : (i+1)*p.sample]
		rows := p.dyt.Data[i*nCols*cs.outC:]
		for pos := 0; pos < nCols; pos++ {
			dst := rows[pos*cs.outC : pos*cs.outC+cs.outC]
			for ch := range dst {
				dst[ch] = src[ch*nCols+pos]
			}
		}
	}
}

// gradW needs forward's patch rows and gather's dyt.
func (p *parentConv) gradW(dw []float32) {
	MatMulTransA(p.dyt, p.cols, FromSlice(dw, p.cs.outC, p.f))
}

// gradX needs gather's dyt.
func (p *parentConv) gradX(w, dx []float32) {
	cs, nCols, f := p.cs, p.nCols, p.f
	MatMul(p.dyt, FromSlice(w, cs.outC, f), p.dcols)
	for i := 0; i < cs.b; i++ {
		dx3 := FromSlice(dx[i*p.sampleIn:(i+1)*p.sampleIn], cs.inC, cs.h, cs.w)
		Col2imRows(p.dcols.Data[i*nCols*f:(i+1)*nCols*f], cs.inC, cs.h, cs.w, cs.k, cs.k, cs.stride, cs.pad, dx3)
	}
}

// run is one forward and backward pass of the lowered path.
func (p *parentConv) run(x, w, bias, dy []float32) convResult {
	res := convResult{make([]float32, len(dy)), make([]float32, len(w)), make([]float32, len(x))}
	p.forward(x, w, bias, res.y)
	p.gather(dy)
	p.gradW(res.dw)
	p.gradX(w, res.dx)
	return res
}

// convData hands out a case's operands. A sweep over thousands of cases
// would spend its time drawing normals, so vectors are cut at a moving
// offset from two pools of prime length, drawn once: salted normals (−0,
// denormals; every sum finite) and vecInput's — a quarter ±0, denormals,
// ±MaxFloat32, ±Inf and quiet and signalling NaNs of several payloads, the
// values that expose a skipped term, a reordered sum or a swapped operand.
type convData struct {
	clean, poison convPool
}

func newConvData(seed uint64) *convData {
	const n = 8191
	r := rng.New(seed)
	return &convData{convPool{data: sweepData(r, n, false)}, convPool{data: vecInput(r, n, 0)}}
}

// operands returns input, weights, bias and output gradient for cs.
func (d *convData) operands(cs convCase, poison bool) (x, w, bias, dy []float32) {
	outH, outW := cs.out()
	p := &d.clean
	if poison {
		p = &d.poison
	}
	return p.take(cs.b * cs.inC * cs.h * cs.w), p.take(cs.outC * cs.inC * cs.k * cs.k),
		p.take(cs.outC), p.take(cs.b * cs.outC * outH * outW)
}

// convResult is everything the three routines produce for one case.
type convResult struct{ y, dw, dx []float32 }

// runConv runs Forward, GradW and GradX through one Conv, passes times —
// from the second on they meet the scratch the one before left behind.
// Outputs start as NaN: every element must be written.
func runConv(cs convCase, passes int, x, w, bias, dy []float32) convResult {
	outH, outW := cs.out()
	nan := float32(math.NaN())
	fill := func(n int) []float32 {
		d := make([]float32, n)
		for i := range d {
			d[i] = nan
		}
		return d
	}
	// A dirty arena: the Conv must zero what it relies on being zero.
	a := NewArena()
	a.Put(fill(cs.b * cs.inC * (cs.h + 2*cs.pad) * (cs.w + 2*cs.pad)))
	c := NewConv(a, cs.b, cs.inC, cs.h, cs.w, cs.outC, cs.k, cs.stride, cs.pad, true)
	var res convResult
	for pass := 0; pass < passes; pass++ {
		res = convResult{fill(cs.b * cs.outC * outH * outW), fill(len(w)), fill(len(x))}
		c.Forward(x, w, bias, cs.relu, res.y)
		c.GradW(dy, res.dw)
		c.GradX(dy, w, res.dx)
	}
	c.Release()
	return res
}

// checkConv holds the three direct routines to the lowered path's bits on
// one case: from the scalar definition, and from the kernels serial and
// split over 8 goroutines. Any two NaNs are equal (sameF32), as in the GEMM
// sweeps: which NaN's payload an operation on two of them keeps is the
// compiler's choice of operand order, site by site, in the lowered path and
// in the definition alike.
func checkConv(t *testing.T, cs convCase, x, w, bias, dy []float32) {
	t.Helper()
	defer gemmForceProcs.Store(0)
	defer gemmForceScalar.Store(false)

	gemmForceProcs.Store(1)
	want := newParentConv(cs).run(x, w, bias, dy)

	gemmForceScalar.Store(true)
	ref := runConv(cs, 1, x, w, bias, dy)
	gemmForceScalar.Store(false)
	report := func(who string, got convResult) {
		for _, o := range []struct {
			name      string
			got, want []float32
		}{{"y", got.y, want.y}, {"dw", got.dw, want.dw}, {"dx", got.dx, want.dx}} {
			for i := range o.want {
				if !sameF32(o.got[i], o.want[i]) {
					t.Errorf("%v: %s %s element %d = %x, lowered path %x", cs, who, o.name, i,
						math.Float32bits(o.got[i]), math.Float32bits(o.want[i]))
					break
				}
			}
		}
	}
	report("scalar", ref)
	if !hasAVX2 {
		return
	}
	for _, procs := range []int32{1, 8} {
		gemmForceProcs.Store(procs)
		// Two passes on one of them: the second meets used scratch.
		report(fmt.Sprintf("kernels at %d procs", procs), runConv(cs, 1+int(procs)%2, x, w, bias, dy))
	}
}

// TestConvDirectBitIdentical sweeps the direct routines against the
// lowered path over every image from 1×1 to 17×17 under kernels 1, 2, 3 and
// 5, strides 1–3 and pads 0–2, with the channel counts (the 8-channel group
// edge, a patch longer than gemmBlockK), batch, ReLU fusion and data regime
// rotating through the geometries so every value of each meets every kind
// of border.
func TestConvDirectBitIdentical(t *testing.T) {
	inCs := []int{1, 3, 8, 16, 32}
	outCs := []int{1, 7, 8, 9, 16, 24}
	batches := []int{1, 2, 16}
	macs := func(cs convCase) int {
		outH, outW := cs.out()
		return cs.b * outH * outW * cs.inC * cs.k * cs.k * cs.outC
	}
	data := newConvData(61)
	n, ran := 0, 0
	for h := 1; h <= 17; h++ {
		for w := 1; w <= 17; w++ {
			// The short run keeps a ninth of the images.
			if testing.Short() && (h%3 != 2 || w%3 != 2) {
				continue
			}
			for _, k := range []int{1, 2, 3, 5} {
				for stride := 1; stride <= 3; stride++ {
					for pad := 0; pad <= 2; pad++ {
						n++
						ic, oc := n%5, (n/5)%6
						cs := convCase{b: batches[n%3], inC: inCs[ic], h: h, w: w, outC: outCs[oc],
							k: k, stride: stride, pad: pad, relu: n%2 == 0}
						if outH, outW := cs.out(); outH < 1 || outW < 1 {
							continue
						}
						// The scalar definition costs a nanosecond per multiply
						// and runs several times per case: most cases shrink to
						// a budget — batch first, then the wider channel count —
						// and one in 61 keeps nearly all it drew.
						budget := 40_000
						if n%61 == 0 {
							budget = 3_000_000
						}
						for ; macs(cs) > budget && cs.b > 1; cs.b /= 2 {
						}
						for macs(cs) > budget && ic+oc > 0 {
							if ic > 0 && (oc == 0 || cs.inC >= cs.outC) {
								ic--
							} else {
								oc--
							}
							cs.inC, cs.outC = inCs[ic], outCs[oc]
						}
						x, wts, bias, dy := data.operands(cs, n%4 >= 2)
						checkConv(t, cs, x, wts, bias, dy)
						ran++
						if t.Failed() {
							return
						}
					}
				}
			}
		}
	}
	if ran == 0 {
		t.Fatal("sweep ran no geometry")
	}
}

// TestConvDirectModelShapes: the convolutions the mini models issue, at
// the training batch, clean and poisoned.
func TestConvDirectModelShapes(t *testing.T) {
	data := newConvData(67)
	for _, cs := range convModelShapes {
		for _, poison := range []bool{false, true} {
			for _, relu := range []bool{false, true} {
				cs.relu = relu
				x, w, bias, dy := data.operands(cs, poison)
				checkConv(t, cs, x, w, bias, dy)
			}
		}
	}
}

// convModelShapes are the convolutions of MiniCNN, MiniVGG, MiniResNet and
// MiniResNetBN at batch 16: the stem, the block convs before and after the
// first pool, and the widening conv2.
var convModelShapes = []convCase{
	{b: 16, inC: 1, h: 16, w: 16, outC: 8, k: 3, stride: 1, pad: 1},
	{b: 16, inC: 8, h: 16, w: 16, outC: 8, k: 3, stride: 1, pad: 1},
	{b: 16, inC: 8, h: 8, w: 8, outC: 8, k: 3, stride: 1, pad: 1},
	{b: 16, inC: 8, h: 8, w: 8, outC: 16, k: 3, stride: 1, pad: 1},
}

// TestConvInfWeightAgainstPadding: a padding tap is multiplied, not
// skipped, so an Inf weight makes NaN of exactly the outputs whose
// receptive field reaches the border — as the lowered path's zeros did.
func TestConvInfWeightAgainstPadding(t *testing.T) {
	cs := convCase{b: 2, inC: 8, h: 16, w: 16, outC: 8, k: 3, stride: 1, pad: 1}
	x, w, bias, dy := newConvData(71).operands(cs, false)
	for i := range x {
		x[i] = float32(math.Abs(float64(x[i]))) + 1 // finite, positive: Inf·x = +Inf
	}
	w[3*72+0] = float32(math.Inf(1)) // channel 3, tap (ch 0, ky 0, kx 0)
	res := runConv(cs, 1, x, w, bias, dy)
	for s := 0; s < cs.b; s++ {
		for oy := 0; oy < 16; oy++ {
			for ox := 0; ox < 16; ox++ {
				v := res.y[((s*8+3)*16+oy)*16+ox]
				if border := oy == 0 || ox == 0; border != (v != v) {
					t.Fatalf("sample %d output (%d,%d) = %v: NaN expected exactly on the top and left edges", s, oy, ox, v)
				}
			}
		}
	}
	checkConv(t, cs, x, w, bias, dy)
}

// TestConvDirectSteadyStateAllocs: once sized, the three routines allocate
// nothing (serial, as a training step on one core runs them).
func TestConvDirectSteadyStateAllocs(t *testing.T) {
	defer gemmForceProcs.Store(0)
	gemmForceProcs.Store(1)
	cs := convModelShapes[1]
	x, w, bias, dy := newConvData(73).operands(cs, false)
	c := NewConv(nil, cs.b, cs.inC, cs.h, cs.w, cs.outC, cs.k, cs.stride, cs.pad, true)
	y, dw, dx := make([]float32, len(dy)), make([]float32, len(w)), make([]float32, len(x))
	if n := testing.AllocsPerRun(5, func() {
		c.Forward(x, w, bias, true, y)
		c.GradW(dy, dw)
		c.GradX(dy, w, dx)
	}); n != 0 {
		t.Fatalf("%v allocations per forward+backward, want 0", n)
	}
}

// FuzzConvDirect drives checkConv from a fuzzed geometry and raw operand
// bit patterns.
func FuzzConvDirect(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(16), uint8(16), uint8(3), uint8(1), uint8(1), uint8(2), true, uint64(1), []byte{0, 0, 0x80, 0x7f})
	f.Add(uint8(1), uint8(9), uint8(8), uint8(11), uint8(3), uint8(1), uint8(1), uint8(1), false, uint64(2), []byte{1, 0, 0x80, 0xff, 0, 0, 0xc0, 0x7f})
	f.Add(uint8(3), uint8(7), uint8(5), uint8(2), uint8(5), uint8(3), uint8(2), uint8(3), true, uint64(3), []byte{})
	f.Add(uint8(31), uint8(24), uint8(9), uint8(9), uint8(3), uint8(1), uint8(0), uint8(1), true, uint64(4), []byte{0xff, 0xff, 0x7f, 0x7f})
	f.Fuzz(func(t *testing.T, inC, outC, h, w, k, stride, pad, b uint8, relu bool, seed uint64, raw []byte) {
		cs := convCase{b: 1 + int(b%3), inC: 1 + int(inC%32), h: 1 + int(h%17), w: 1 + int(w%17),
			outC: 1 + int(outC%24), k: 1 + int(k%5), stride: 1 + int(stride%3), pad: int(pad % 3), relu: relu}
		if outH, outW := cs.out(); outH < 1 || outW < 1 {
			return
		}
		x, wts, bias, dy := newConvData(seed).operands(cs, seed%2 == 1)
		// The fuzzer's bytes, as float32 bit patterns, overwrite operands at
		// positions the seed picks.
		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		for i := 0; i+4 <= len(raw); i += 4 {
			v := math.Float32frombits(uint32(raw[i]) | uint32(raw[i+1])<<8 | uint32(raw[i+2])<<16 | uint32(raw[i+3])<<24)
			dst := [][]float32{x, wts, bias, dy}[r.Intn(4)]
			dst[r.Intn(len(dst))] = v
		}
		checkConv(t, cs, x, wts, bias, dy)
	})
}
