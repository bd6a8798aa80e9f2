package core

import "math"

// AdaComm is adaptive-communication elastic averaging, after Ho et al.
// (CCGRID'18) — the paper's reference [15], the last of its ten reviewed
// algorithms and the only one not otherwise implemented here. The idea
// (also in Wang & Joshi's ADACOMM): communicate *rarely* early, when large
// loss gradients make cheap local progress, and *often* late, when
// refinement needs tight coupling. The communication period starts at
// Config.Tau and shrinks with the training loss:
//
//	τ(t) = max(1, ceil(τ₀ · √(L_t / L₀)))
//
// In cost-only mode (no loss signal) the period decays linearly from τ₀ to
// 1 across the run, preserving the traffic envelope for the performance
// experiments.
const AdaComm Algo = "adacomm"

// adaCommPeriod returns worker w's "sync now?" rule for runEASGD, asked once
// per iteration after the local step.
func (x *exp) adaCommPeriod(w int) func(it int) bool {
	cfg := x.cfg
	var firstLoss float64
	sinceSync := 0
	return func(it int) bool {
		sinceSync++
		tau := cfg.Tau
		if x.reps[w].mathOn() && x.reps[w].lossInit {
			if firstLoss == 0 {
				firstLoss = x.reps[w].lossEWMA
			}
			ratio := x.reps[w].lossEWMA / firstLoss
			if ratio > 1 {
				ratio = 1
			}
			tau = int(math.Ceil(float64(cfg.Tau) * math.Sqrt(ratio)))
		} else {
			// Cost-only: linear decay τ₀ → 1 over the run.
			frac := 1 - float64(it)/float64(cfg.Iters)
			tau = int(math.Ceil(float64(cfg.Tau) * frac))
		}
		if tau < 1 {
			tau = 1
		}
		if sinceSync < tau {
			return false
		}
		sinceSync = 0
		return true
	}
}
