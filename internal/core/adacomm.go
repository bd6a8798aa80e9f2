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

// adaCommPeriod returns a worker's "sync now?" rule for loopEASGD, asked once
// per iteration after the local step on rep.
func adaCommPeriod(cfg *Config, rep *Replica) func(it int) bool {
	var firstLoss float64
	sinceSync := 0
	return func(it int) bool {
		sinceSync++
		tau := cfg.Tau
		if loss, ok := rep.Loss(); ok {
			if firstLoss == 0 {
				firstLoss = loss
			}
			ratio := loss / firstLoss
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
