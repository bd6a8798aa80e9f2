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
	"sort"

	"disttrain/internal/opt"
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
	clip []float32 // reusable clipping scratch (steady-state: no allocs)
	iter int
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
// top-k update. g is not modified. Advances the warm-up iteration counter.
func (c *Compressor) Compress(g []float32) Sparse {
	if len(g) != len(c.u) {
		panic(fmt.Sprintf("grad: gradient length %d, want %d", len(g), len(c.u)))
	}
	work := g
	if c.cfg.ClipNorm > 0 {
		if c.clip == nil {
			c.clip = make([]float32, len(g))
		}
		copy(c.clip, g)
		opt.ClipByL2Norm(c.clip, c.cfg.ClipNorm)
		work = c.clip
	}
	// Momentum correction: u += m*u + g; accumulation: v += u.
	if c.cfg.NoMomentumCorrection {
		for i, gi := range work {
			c.v[i] += gi
		}
	} else {
		m := c.cfg.Momentum
		for i, gi := range work {
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
	idx := topKIndices(c.v, k)
	sp := Sparse{Idx: make([]int32, len(idx)), Val: make([]float32, len(idx)), Dense: len(c.v)}
	for j, i := range idx {
		sp.Idx[j] = int32(i)
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

// topKIndices returns the indices of the k largest |v| entries. Selection is
// deterministic: ties break toward the lower index.
func topKIndices(v []float32, k int) []int {
	n := len(v)
	if k >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	// Heap-free deterministic selection: maintain the k best in a slice.
	// For the sizes this repo uses (k = 0.1-25 % of ~100k) an O(n log k)
	// partial sort via a fixed-size worst-tracking array is plenty.
	type ent struct {
		i int
		a float32
	}
	best := make([]ent, 0, k)
	abs := func(x float32) float32 {
		if x < 0 {
			return -x
		}
		return x
	}
	// Total order: larger magnitude first, ties broken toward the lower
	// index. The index tiebreak makes selection at the k-boundary
	// deterministic — an unstable magnitude-only sort could admit either of
	// two tied entries depending on the sort's internal permutation.
	less := func(x, y ent) bool {
		if x.a != y.a {
			return x.a > y.a
		}
		return x.i < y.i
	}
	// Build initial k.
	for i := 0; i < k; i++ {
		best = append(best, ent{i, abs(v[i])})
	}
	sort.Slice(best, func(a, b int) bool { return less(best[a], best[b]) })
	for i := k; i < n; i++ {
		e := ent{i, abs(v[i])}
		if !less(e, best[k-1]) {
			continue
		}
		// Insert into sorted position, drop the last. pos < k is guaranteed
		// here for ordinary values (e sorts before best[k-1]), but a NaN
		// magnitude compares false everywhere, so guard the copy.
		pos := sort.Search(k, func(j int) bool { return less(e, best[j]) })
		if pos >= k {
			continue
		}
		copy(best[pos+1:], best[pos:k-1])
		best[pos] = e
	}
	idx := make([]int, k)
	for j, e := range best {
		idx[j] = e.i
	}
	sort.Ints(idx)
	return idx
}
