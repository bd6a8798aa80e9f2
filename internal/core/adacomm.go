package core

import (
	"fmt"
	"math"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

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

// runAdaComm is EASGD's elastic protocol with a per-worker adaptive period.
func runAdaComm(x *exp) {
	cfg := x.cfg
	alpha := float32(cfg.MovingRate)

	// Shards are identical to EASGD's: stateless elastic responders.
	for s := range x.assign {
		s := s
		x.eng.Spawn(fmt.Sprintf("adacomm-ps%d", s), func(p *des.Proc) {
			inbox := x.psInbox(s)
			for {
				m := inbox.Recv(p)
				if m.Kind != kindEASGDPush {
					panic(fmt.Sprintf("adacomm shard: unexpected kind %d", m.Kind))
				}
				psAggSleep(p, m.Bytes)
				x.global.ElasticUpdate(x.assign[s], m.Vec, alpha)
				x.net.Send(simnet.Msg{From: x.psNode[s], To: m.From,
					Kind: kindEASGDReply, Seg: s, Bytes: x.shardBytes(s), Vec: m.Vec})
			}
		})
	}

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("adacomm-worker%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			bd := &x.col.Workers[w].Breakdown
			var firstLoss float64
			sinceSync := 0
			for it := 1; it <= cfg.Iters; it++ {
				// Fault schedules are rejected for AdaComm in Validate; the
				// gate only serves context cancellation here.
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, _ := x.computePhase(p, w, false)
				x.reps[w].LocalStep(gf.get(), cfg.LR.At(it-1))
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

				if sinceSync >= tau {
					sinceSync = 0
					params := x.reps[w].Params()
					for s := range x.assign {
						var payload []float32
						if params != nil {
							payload = append([]float32(nil), params...)
						}
						x.net.Send(simnet.Msg{From: x.workerNode[w], To: x.psNode[s],
							Kind: kindEASGDPush, Clock: it, Seg: s,
							Bytes: x.shardBytes(s), Vec: payload})
					}
					t0 := p.Now()
					var wire des.Time
					for recv := 0; recv < len(x.assign); recv++ {
						m := inbox.Recv(p)
						if m.Kind != kindEASGDReply {
							panic(fmt.Sprintf("adacomm worker: unexpected kind %d", m.Kind))
						}
						wire += m.WireSec
						if m.Vec != nil {
							x.reps[w].setRanges(x.assign[m.Seg], m.Vec)
						}
					}
					bd.Add(metrics.Network, wire)
					bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
				}
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
