// Package opt implements the optimizer and learning-rate machinery the
// paper trains with: momentum SGD with weight decay, the linear LR scaling
// rule (η = base·N), gradual warm-up, and step decay.
//
// Optimizers operate on flat []float32 vectors rather than models because
// the same update code runs in three places: inside workers (local updates),
// inside parameter-server shards (global updates), and inside the DGC
// compressor (momentum correction).
package opt

import (
	"fmt"

	"disttrain/internal/tensor"
)

// SGD is momentum SGD with L2 weight decay:
//
//	v ← μ·v + g + λ·w
//	w ← w − η·v
//
// The velocity starts at zero and is allocated by the first step: a
// worker whose parameters are only ever overwritten (a BSP or ASP replica,
// which the parameter server steps) never holds one.
type SGD struct {
	Momentum    float32
	WeightDecay float32
	n           int
	vel         []float32
}

// NewSGD creates an optimizer for parameter vectors of length n.
func NewSGD(n int, momentum, weightDecay float32) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, n: n}
}

// Step applies one update to params given grads and learning rate lr.
// params and grads must have the optimizer's length.
func (s *SGD) Step(params, grads []float32, lr float32) {
	if len(params) != s.n || len(grads) != s.n {
		panic(fmt.Sprintf("opt: Step lengths %d/%d, want %d", len(params), len(grads), s.n))
	}
	s.StepAt(params, grads, 1, lr, 0)
}

// StepAt applies the update to p, the window of the parameters that starts
// at flat offset off, given scale·g for that window's gradient: a summed
// gradient is averaged (scale = 1/workers) in the pass that consumes it,
// not in one of its own, and g is left as it was. Only the optimizer state
// is indexed by off: p need not be part of a flat vector, so a model's
// parameter tensors can be stepped where they live.
//
// The bits are those of scaling g first and stepping with scale 1: the
// product is rounded to float32 before anything is added to it (the
// explicit conversion forbids fusing it into the sum on targets with FMA),
// and g·1 is g.
func (s *SGD) StepAt(p, g []float32, scale, lr float32, off int) {
	if len(g) != len(p) {
		panic(fmt.Sprintf("opt: StepAt gradient length %d, want %d", len(g), len(p)))
	}
	if s.vel == nil {
		s.vel = make([]float32, s.n)
	}
	tensor.SGDStepF32(p, g, s.vel[off:off+len(p)], scale, lr, s.Momentum, s.WeightDecay)
}

// Velocity exposes the momentum buffer: nil until the first step, which is
// the all-zero velocity a fresh optimizer starts from.
func (s *SGD) Velocity() []float32 { return s.vel }

// SetVelocity adopts v as the momentum buffer (a checkpoint's): the caller
// hands v over. It must have the optimizer's length.
func (s *SGD) SetVelocity(v []float32) {
	if len(v) != s.n {
		panic(fmt.Sprintf("opt: SetVelocity length %d, want %d", len(v), s.n))
	}
	s.vel = v
}

// Schedule is the paper's learning-rate policy: linear-scaled base rate,
// gradual warm-up over the first WarmupIters iterations (from Base/Workers
// up to Base·Workers... see NewPaperSchedule), then step decay.
type Schedule struct {
	// Base is the target learning rate after warm-up.
	Base float64
	// WarmupIters linearly ramps the rate from Base/10 to Base. Zero
	// disables warm-up.
	WarmupIters int
	// DecayAt lists iteration numbers at which the rate is multiplied by
	// DecayFactor (cumulatively). Must be ascending.
	DecayAt     []int
	DecayFactor float64
}

// NewPaperSchedule builds the schedule used throughout the evaluation
// section: η = baseLR·workers (linear scaling rule), warm-up over the first
// warmupIters, and ×0.1 decays at the given iterations (the paper decays at
// epochs 30/60/80 of 90).
func NewPaperSchedule(baseLR float64, workers int, warmupIters int, decayAt []int) Schedule {
	return Schedule{
		Base:        baseLR * float64(workers),
		WarmupIters: warmupIters,
		DecayAt:     append([]int(nil), decayAt...),
		DecayFactor: 0.1,
	}
}

// At returns the learning rate for iteration t (0-based).
func (s Schedule) At(t int) float32 {
	lr := s.Base
	if s.WarmupIters > 0 && t < s.WarmupIters {
		// ramp from Base/10 to Base
		frac := float64(t) / float64(s.WarmupIters)
		lr = s.Base * (0.1 + 0.9*frac)
	}
	f := s.DecayFactor
	if f == 0 {
		f = 0.1
	}
	for _, at := range s.DecayAt {
		if t >= at {
			lr *= f
		}
	}
	return float32(lr)
}

// ClipByL2Norm rescales g in place so its L2 norm does not exceed maxNorm,
// returning the pre-clip norm. Used by DGC's local gradient clipping.
func ClipByL2Norm(g []float32, maxNorm float64) float64 {
	n := tensor.L2NormF32(g)
	if n > maxNorm && n > 0 {
		scale := float32(maxNorm / n)
		tensor.ScaleF32(scale, g)
	}
	return n
}
