package tensor

import "disttrain/internal/rng"

// normalBlock is how many uniform pairs FillNormal draws at a time, into
// stack arrays.
const normalBlock = 64

// drawMinWords is the fewest stream words a segment of a split draw takes:
// below it, starting a goroutine and jumping its stream cost more than the
// segment saves.
const drawMinWords = 1 << 16

// drawWidth is how many segments SplitDraw cuts an n-item draw of words
// words per item into: gemm's fan-out width, and no segment under
// drawMinWords. The wrappers check it BEFORE they construct SplitDraw's
// closure, which escapes: a draw that stays serial allocates nothing.
func drawWidth(n, words int) int {
	return max(1, min(gemmProcs(), n*words/drawMinWords))
}

// SplitDraw runs draw, a serial draw of items [0, n) from r, as that draw
// would run, over segments on gemm's fan-out. draw(r, i0, i1) draws items
// [i0, i1) from r and returns how many words beyond words per item it took
// (its redraws). Each segment starts from r jumped (rng.Skip) by words per
// item before it — never reseeded — so every value, and r's final state, is
// the serial draw's. A redraw shifts the words of every later item by one:
// the segments after one are drawn again, in order, from the true end of the
// segment before. One segment is draw(r, 0, n) itself. SplitDraw returns
// the total redraws.
func SplitDraw(r *rng.RNG, n, words int, draw func(r *rng.RNG, i0, i1 int) (redraws int)) (redraws int) {
	procs := drawWidth(n, words)
	if procs == 1 {
		return draw(r, 0, n)
	}
	chunk := (n + procs - 1) / procs // gemmDispatch's panel length
	segs := make([]struct {
		r       rng.RNG
		redraws int
		_       [64]byte // keeps each segment's stream off its neighbours' cache lines
	}, (n+chunk-1)/chunk)
	gemmDispatch(n, procs, func(i0, i1 int) {
		s := &segs[i0/chunk]
		s.r = *r
		s.r.Skip(uint64(i0 * words))
		s.redraws = draw(&s.r, i0, i1)
	})
	for k := 1; k < len(segs); k++ {
		if redraws += segs[k-1].redraws; redraws > 0 {
			segs[k].r = segs[k-1].r
			segs[k].redraws = draw(&segs[k].r, k*chunk, min(k*chunk+chunk, n))
		}
	}
	last := &segs[len(segs)-1]
	*r = last.r
	return redraws + last.redraws
}

// FillNormal fills dst with standard normal variates from r: exactly the
// values, and the final state of r, that len(dst) calls of r.NormFloat64
// give, split over the cores by SplitDraw when it is large (a normal takes
// two words). It returns how many u words were redrawn.
func FillNormal(dst []float64, r *rng.RNG) (redraws int) {
	if drawWidth(len(dst), 2) > 1 {
		return SplitDraw(r, len(dst), 2, func(r *rng.RNG, i0, i1 int) int { return fillNormal(dst[i0:i1], r) })
	}
	return fillNormal(dst, r)
}

// fillNormal is FillNormal's serial draw. Each block's uniform pairs come
// from r.BoxMullerInputs; the multiple-of-4 prefix goes through an AVX2
// kernel that reproduces rng.BoxMuller bit for bit, and the rest (all of it
// without AVX2 or off amd64) through rng.BoxMuller itself.
func fillNormal(dst []float64, r *rng.RNG) (redraws int) {
	var u, v [normalBlock]float64
	for len(dst) > 0 {
		n := min(len(dst), normalBlock)
		redraws += r.BoxMullerInputs(u[:n], v[:n])
		k := 0
		if hasAVX2 {
			k = n &^ 3
		}
		if k > 0 {
			boxMullerAVX2(&dst[0], &u[0], &v[0], k)
		}
		for i := k; i < n; i++ {
			dst[i] = rng.BoxMuller(u[i], v[i])
		}
		dst = dst[n:]
	}
	return redraws
}

// RandNormal fills t with N(0, std²) variates from r: float32(z·std) for
// each z of FillNormal, which draws what r.NormFloat64 would.
func (t *Tensor) RandNormal(r *rng.RNG, std float64) {
	if drawWidth(len(t.Data), 2) > 1 {
		SplitDraw(r, len(t.Data), 2, func(r *rng.RNG, i0, i1 int) int { return randNormal(t.Data[i0:i1], r, std) })
		return
	}
	randNormal(t.Data, r, std)
}

// randNormal is RandNormal's serial draw, through fillNormal in stack
// blocks.
func randNormal(d []float32, r *rng.RNG, std float64) (redraws int) {
	var z [4 * normalBlock]float64
	for len(d) > 0 {
		n := min(len(d), len(z))
		redraws += fillNormal(z[:n], r)
		for i, v := range z[:n] {
			d[i] = float32(v * std)
		}
		d = d[n:]
	}
	return redraws
}
