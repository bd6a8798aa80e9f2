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
	"math"

	"disttrain/internal/tensor"
)

// SGD is momentum SGD with L2 weight decay:
//
//	v ← μ·v + g + λ·w
//	w ← w − η·v
type SGD struct {
	Momentum    float32
	WeightDecay float32
	vel         []float32
}

// NewSGD creates an optimizer for parameter vectors of length n.
func NewSGD(n int, momentum, weightDecay float32) *SGD {
	return &SGD{Momentum: momentum, WeightDecay: weightDecay, vel: make([]float32, n)}
}

// Step applies one update to params given grads and learning rate lr.
// params and grads must have the optimizer's length.
func (s *SGD) Step(params, grads []float32, lr float32) {
	if len(params) != len(s.vel) || len(grads) != len(s.vel) {
		panic(fmt.Sprintf("opt: Step lengths %d/%d, want %d", len(params), len(grads), len(s.vel)))
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
	tensor.SGDStepF32(p, g, s.vel[off:off+len(p)], scale, lr, s.Momentum, s.WeightDecay)
}

// Velocity exposes the momentum buffer (used by DGC's momentum correction
// tests and ablations).
func (s *SGD) Velocity() []float32 { return s.vel }

// Adam is the Adam optimizer (Kingma & Ba) on flat vectors — the optimizer
// transformer-era models train with, provided as an extension next to
// momentum SGD. Bias correction is applied.
type Adam struct {
	Beta1, Beta2 float32
	Eps          float32
	WeightDecay  float32
	m, v         []float32
	// b1t, b2t hold β₁ᵗ and β₂ᵗ for O(1) bias correction per step.
	b1t, b2t float32
}

// NewAdam creates an Adam optimizer for vectors of length n with the
// standard (0.9, 0.999, 1e-8) coefficients.
func NewAdam(n int, weightDecay float32) *Adam {
	return &Adam{Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay,
		m: make([]float32, n), v: make([]float32, n), b1t: 1, b2t: 1}
}

// Step applies one Adam update to params given grads and learning rate lr.
func (a *Adam) Step(params, grads []float32, lr float32) {
	if len(params) != len(a.m) || len(grads) != len(a.m) {
		panic(fmt.Sprintf("opt: Adam step lengths %d/%d, want %d", len(params), len(grads), len(a.m)))
	}
	a.b1t *= a.Beta1
	a.b2t *= a.Beta2
	c1 := 1 - a.b1t
	c2 := 1 - a.b2t
	for i, g := range grads {
		g += a.WeightDecay * params[i]
		a.m[i] = a.Beta1*a.m[i] + (1-a.Beta1)*g
		a.v[i] = a.Beta2*a.v[i] + (1-a.Beta2)*g*g
		mhat := a.m[i] / c1
		vhat := a.v[i] / c2
		params[i] -= lr * mhat / (sqrt32(vhat) + a.Eps)
	}
}

func sqrt32(x float32) float32 { return float32(math.Sqrt(float64(x))) }

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

// CosineSchedule is a warm-up + cosine-annealing learning-rate policy — the
// modern alternative to step decay, provided as an extension for users who
// want to train the mini-models with current recipes.
type CosineSchedule struct {
	// Base is the post-warm-up peak rate.
	Base float64
	// WarmupIters ramps linearly from Base/10 to Base.
	WarmupIters int
	// TotalIters is the annealing horizon; beyond it the rate stays at Min.
	TotalIters int
	// Min is the floor rate (default 0).
	Min float64
}

// At returns the learning rate at iteration t (0-based).
func (s CosineSchedule) At(t int) float32 {
	if s.WarmupIters > 0 && t < s.WarmupIters {
		frac := float64(t) / float64(s.WarmupIters)
		return float32(s.Base * (0.1 + 0.9*frac))
	}
	if s.TotalIters <= s.WarmupIters {
		return float32(s.Base)
	}
	prog := float64(t-s.WarmupIters) / float64(s.TotalIters-s.WarmupIters)
	if prog > 1 {
		prog = 1
	}
	cos := 0.5 * (1 + math.Cos(math.Pi*prog))
	return float32(s.Min + (s.Base-s.Min)*cos)
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

// IsFinite reports whether every element of g is finite — a guard used by
// training drivers to detect divergence early.
func IsFinite(g []float32) bool {
	for _, v := range g {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return false
		}
	}
	return true
}
