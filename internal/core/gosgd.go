package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/simnet"
)

// runGoSGD implements Gossip SGD (Section IV-B, after Blot et al.): every
// iteration each worker trains locally, then with probability p picks a
// uniformly random peer and pushes its parameters to it *asymmetrically* —
// it does not wait for any response (the push-sum style the paper calls
// asymmetric communication). Each worker carries a mixing weight; a sender
// halves its weight and ships one half with its parameters, and a receiver
// folds the incoming pair in with a weighted average, which keeps the
// network-wide average unbiased.
//
// Receives are processed at iteration boundaries, modeling the paper's
// background communication thread.
func runGoSGD(x *exp) {
	cfg := x.cfg
	W := cfg.Workers

	weights := make([]float64, W)
	for i := range weights {
		weights[i] = 1
	}

	for w := 0; w < W; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("gosgd-worker%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			r := x.streams[w].Algo
			drain := func() {
				for {
					m, ok := inbox.TryRecv()
					if !ok {
						return
					}
					if m.Kind != kindGossip {
						panic(fmt.Sprintf("gosgd worker: unexpected kind %d", m.Kind))
					}
					weights[w] = x.reps[w].WeightedMerge(weights[w], m.Vec, m.Aux)
				}
			}
			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, _ := x.computePhase(p, w, false)
				x.reps[w].LocalStep(gf.get(), 1, cfg.LR.At(it-1))
				drain()

				if r.Bernoulli(cfg.GossipP) {
					// Choose a target uniformly among the other workers —
					// or, with a sparse overlay, among this worker's overlay
					// neighbors. Under fault injection, among the live
					// reachable members of that base set (a push to a dead
					// peer would lose its weight mass).
					t := -1
					if x.inj == nil {
						if x.overlay != nil {
							nb := x.overlay.Neighbors[w]
							t = nb[r.Intn(len(nb))]
						} else {
							t = r.Intn(W - 1)
							if t >= w {
								t++
							}
						}
					} else {
						now := p.Now()
						myM := cfg.Cluster.MachineOfWorker(w)
						var base []int
						if x.overlay != nil {
							base = x.overlay.Neighbors[w]
						} else {
							for pe := 0; pe < W; pe++ {
								if pe != w {
									base = append(base, pe)
								}
							}
						}
						var cands []int
						for _, pe := range base {
							if x.inj.DeadAt(pe, now) {
								continue
							}
							if x.inj.Partitioned(now, myM, cfg.Cluster.MachineOfWorker(pe)) {
								continue
							}
							cands = append(cands, pe)
						}
						if len(cands) == 0 {
							x.col.Faults.SkippedExchanges++
						} else {
							if len(cands) < len(base) {
								x.col.Faults.Redraws++
							}
							t = cands[r.Intn(len(cands))]
						}
					}
					if t >= 0 {
						half := weights[w] / 2
						weights[w] = half
						var payload []float32
						if x.reps[w].mathOn() {
							payload = x.reps[w].Params()
						}
						// Asymmetric: fire and forget; the sender
						// immediately proceeds to its next iteration.
						x.net.Send(simnet.Msg{From: x.workerNode[w], To: x.workerNode[t],
							Kind: kindGossip, Clock: it, Aux: half,
							Bytes: x.fullBytes(), Vec: payload})
					}
				}
				x.iterDone(w, it)
			}
			drain()
			x.finish(w)
		})
	}
}
