// Package grad implements gradient compression, specifically Deep Gradient
// Compression (DGC, Lin et al., ICLR'18) as evaluated in the paper: top-k
// sparsification (top 0.1 % by magnitude) with the accuracy-preserving
// machinery — local gradient accumulation, momentum correction, local
// gradient clipping, momentum factor masking, and warm-up training.
//
// The compressor replaces the worker-side momentum of plain SGD: momentum
// is accumulated *inside* the compressor (momentum correction), so the
// receiving end applies the decompressed sparse gradient with a plain
// (momentum-free) SGD step.
package grad

import (
	"fmt"
	"math"

	"disttrain/internal/tensor"
)

// DGCConfig configures a compressor.
type DGCConfig struct {
	// Ratio is the final fraction of gradient entries transmitted (paper:
	// 0.001, i.e. top 0.1 %).
	Ratio float64
	// Momentum is the correction momentum (matches the optimizer momentum).
	Momentum float32
	// ClipNorm bounds the L2 norm of each local gradient before
	// accumulation; 0 disables clipping.
	ClipNorm float64
	// WarmupIters ramps sparsity exponentially from dense to Ratio over
	// this many iterations (the paper warms up over the first epochs).
	WarmupIters int
	// NoMomentumCorrection disables momentum correction (ablation).
	NoMomentumCorrection bool
	// NoFactorMasking disables momentum factor masking (ablation).
	NoFactorMasking bool
}

// DefaultDGC returns the configuration the paper evaluates.
func DefaultDGC(momentum float32, warmupIters int) DGCConfig {
	return DGCConfig{Ratio: 0.001, Momentum: momentum, ClipNorm: 2.0, WarmupIters: warmupIters}
}

// Validate reports a configuration error.
func (c DGCConfig) Validate() error {
	if c.Ratio <= 0 || c.Ratio > 1 {
		return fmt.Errorf("grad: DGC ratio %v out of (0,1]", c.Ratio)
	}
	return nil
}

// Sparse is a compressed gradient: parallel index/value slices.
type Sparse struct {
	Idx []int32
	Val []float32
	// Dense is the uncompressed length, needed by receivers.
	Dense int
}

// WireBytes returns the transmitted size: 4 bytes index + 4 bytes value per
// retained entry.
func (s Sparse) WireBytes() int64 { return int64(len(s.Idx)) * 8 }

// Compressor holds per-worker DGC state.
type Compressor struct {
	cfg  DGCConfig
	u    []float32 // momentum-corrected accumulator
	v    []float32 // local gradient accumulation (residual)
	iter int
	sel  selector
	val  []float32 // the emitted values
}

// NewCompressor creates DGC state for gradient vectors of length n.
func NewCompressor(cfg DGCConfig, n int) *Compressor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Compressor{cfg: cfg, u: make([]float32, n), v: make([]float32, n)}
}

// RatioAt returns the sparsity ratio in effect at a compressor's iter-th
// Compress call, following the paper's exponential warm-up (dense → Ratio).
func (c DGCConfig) RatioAt(iter int) float64 {
	if c.WarmupIters <= 0 || iter >= c.WarmupIters {
		return c.Ratio
	}
	// Exponential ramp: ratio(t) = Ratio^(t/warmup), from dense to Ratio.
	frac := float64(iter) / float64(c.WarmupIters)
	return math.Pow(c.Ratio, frac)
}

// CurrentRatio returns the sparsity ratio in effect at the compressor's
// iteration.
func (c *Compressor) CurrentRatio() float64 { return c.cfg.RatioAt(c.iter) }

// Compress folds gradient g into the accumulators and emits the sparse
// top-k update: the k accumulated entries of largest magnitude, ties toward
// the lower index, in ascending index order. g is not modified. Advances the
// warm-up iteration counter. The returned Sparse's slices may be the
// compressor's scratch: they hold until the next call, which may overwrite
// them. The scratch grows to the largest k short of a dense step and the
// most crowded boundary bin the selection has met (see selector), so a
// steady state allocates nothing.
//
// A NaN accumulator entry ranks above +Inf, ahead of every number (among
// NaNs, by payload bits and then index), so a NaN gradient is shipped to the
// receiver rather than kept in the residual for good; ±0 tie with each other.
func (c *Compressor) Compress(g []float32) Sparse {
	if len(g) != len(c.u) {
		panic(fmt.Sprintf("grad: gradient length %d, want %d", len(g), len(c.u)))
	}
	// Gradient clipping (opt.ClipByL2Norm's rule) folds into the
	// accumulation pass: each element is scaled as it is read, rounded to
	// float32 as a clipped copy of g would hold it.
	clip, s := false, float32(1)
	if c.cfg.ClipNorm > 0 {
		if n := tensor.L2NormF32(g); n > c.cfg.ClipNorm && n > 0 {
			clip, s = true, float32(c.cfg.ClipNorm/n)
		}
	}
	// Momentum correction: u += m*u + g; accumulation: v += u.
	m := c.cfg.Momentum
	switch {
	case c.cfg.NoMomentumCorrection && clip:
		for i, gi := range g {
			c.v[i] += float32(gi * s)
		}
	case c.cfg.NoMomentumCorrection:
		for i, gi := range g {
			c.v[i] += gi
		}
	case clip:
		for i, gi := range g {
			c.u[i] = m*c.u[i] + float32(gi*s)
			c.v[i] += c.u[i]
		}
	default:
		for i, gi := range g {
			c.u[i] = m*c.u[i] + gi
			c.v[i] += c.u[i]
		}
	}

	ratio := c.CurrentRatio()
	c.iter++
	k := int(float64(len(c.v)) * ratio)
	if k < 1 {
		k = 1
	}
	if k > len(c.v) {
		k = len(c.v)
	}
	idx := c.sel.pick(c.v, k)
	val := c.val
	if cap(val) < len(idx) {
		if val = make([]float32, len(idx)); len(idx) < len(c.v) {
			c.val = val // a dense step's values are not kept, as in pick
		}
	}
	sp := Sparse{Idx: idx, Val: val[:len(idx)], Dense: len(c.v)}
	for j, i := range idx {
		sp.Val[j] = c.v[i]
		c.v[i] = 0
		if !c.cfg.NoMomentumCorrection && !c.cfg.NoFactorMasking {
			c.u[i] = 0 // momentum factor masking
		}
	}
	return sp
}

// Residual exposes the accumulation buffer (tests/ablations).
func (c *Compressor) Residual() []float32 { return c.v }

// Decompress scatter-adds the sparse update into dense (length must equal
// sp.Dense), scaled by alpha. It validates the sparse payload before
// touching dense — a malformed or corrupted message (length mismatch,
// out-of-range index, duplicate index) yields an error instead of a panic
// or a silently double-applied entry, and leaves dense unmodified.
func Decompress(sp Sparse, alpha float32, dense []float32) error {
	if len(dense) != sp.Dense {
		return fmt.Errorf("grad: dense length %d, want %d", len(dense), sp.Dense)
	}
	if len(sp.Idx) != len(sp.Val) {
		return fmt.Errorf("grad: sparse idx/val length mismatch: %d vs %d", len(sp.Idx), len(sp.Val))
	}
	// Compress emits indices in strictly ascending order, so the common case
	// validates range and uniqueness in one pass with no extra memory.
	ascending := true
	for j, i := range sp.Idx {
		if i < 0 || int(i) >= sp.Dense {
			return fmt.Errorf("grad: sparse index %d out of range [0,%d)", i, sp.Dense)
		}
		if j > 0 && i <= sp.Idx[j-1] {
			ascending = false
		}
	}
	if !ascending {
		// Unsorted input: fall back to a set to reject duplicates.
		seen := make(map[int32]struct{}, len(sp.Idx))
		for _, i := range sp.Idx {
			if _, dup := seen[i]; dup {
				return fmt.Errorf("grad: duplicate sparse index %d", i)
			}
			seen[i] = struct{}{}
		}
	}
	for j, i := range sp.Idx {
		dense[i] += alpha * sp.Val[j]
	}
	return nil
}

// selector is DGC's top-k selection with its scratch, which a compressor
// keeps across calls: picking allocates only for a dense selection, or when
// a call needs more room than every call before it — a larger k, or more
// candidates in its boundary bin.
//
// The order is by key, larger first, ties toward the lower index. key clears
// the sign bit, and for IEEE 754 floats of one sign the bit patterns order as
// the values do, so for non-NaN x and y key(x) > key(y) exactly when
// |x| > |y|, and the keys are equal exactly when the magnitudes are (±0 both
// key 0): the magnitude order. A NaN keys above +Inf.
//
// pick is a radix selection over the key's bits, O(n) in time whatever k:
// one pass over v counts the keys' top 11 bits (8 of exponent, 3 of
// mantissa) and finds the boundary bin holding the k-th best; a second pass
// takes every index of a higher bin — in ascending order, as they come — and
// collects the boundary bin's candidates. Two counting rounds over the
// candidates, 10 bits each, fix the exact k-th key, and one pass keeps the
// candidates above it and, of those equal to it, the lowest indices. The two
// ascending lists are then merged from the back in place.
type selector struct {
	hist [1 << 11]int32
	idx  []int32 // the selection
	cand []int32 // the boundary bin's candidates
}

func key(x float32) uint32 { return math.Float32bits(x) &^ (1 << 31) }

// pick returns the indices of v's k best entries (0 < k) in ascending order,
// in scratch the next call may overwrite.
func (s *selector) pick(v []float32, k int) []int32 {
	n := len(v)
	if k >= n {
		// A dense selection — DGC's first warm-up step — gets a list the
		// selector does not keep: kept, it would hold a model-sized vector
		// through a run whose later steps select a small fraction.
		idx := make([]int32, n)
		for i := range idx {
			idx[i] = int32(i)
		}
		return idx
	}
	if cap(s.idx) < k {
		s.idx = make([]int32, k)
	}
	idx := s.idx[:k]
	h := s.hist[:]
	clear(h)
	for _, x := range v {
		h[key(x)>>20]++
	}
	// need counts the entries the bins above b leave to take, at least 1.
	b, need := len(h)-1, k
	for int(h[b]) < need {
		need -= int(h[b])
		b--
	}
	above, cand := idx[:0], s.cand[:0]
	lo, hi := uint32(b)<<20, uint32(b+1)<<20 // the boundary bin's keys
	for i, x := range v {
		if kk := key(x); kk >= lo {
			if kk >= hi {
				above = append(above, int32(i))
			} else {
				cand = append(cand, int32(i))
			}
		}
	}
	s.cand = cand
	// Narrow the bits below the bin, 10 at a time, among the candidates
	// that share the cut's bits so far: t ends as the k-th best key.
	t := uint32(b) << 20
	for _, shift := range [...]uint{10, 0} {
		h := s.hist[:1<<10]
		clear(h)
		for _, i := range cand {
			if kk := key(v[i]); kk>>(shift+10) == t>>(shift+10) {
				h[kk>>shift&(1<<10-1)]++
			}
		}
		d := len(h) - 1
		for int(h[d]) < need {
			need -= int(h[d])
			d--
		}
		t |= uint32(d) << shift
	}
	kept := cand[:0]
	for _, i := range cand {
		if kk := key(v[i]); kk > t || kk == t && need > 0 {
			if kk == t {
				need--
			}
			kept = append(kept, i)
		}
	}
	// Merge: above sits at the front of idx, kept fills the rest.
	a, c := len(above)-1, len(kept)-1
	for w := k - 1; c >= 0; w-- {
		if a >= 0 && idx[a] > kept[c] {
			idx[w] = idx[a]
			a--
		} else {
			idx[w] = kept[c]
			c--
		}
	}
	return idx
}
