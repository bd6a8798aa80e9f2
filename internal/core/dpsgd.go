package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

// DPSGD is synchronous Decentralized Parallel SGD (Lian et al., NeurIPS'17
// — reference [19] of the paper, reviewed there but not among the seven
// selected algorithms; included here as an extension). Workers sit on a
// ring; every iteration each worker exchanges parameters with both ring
// neighbors, mixes x ← (x_self + x_left + x_right)/3, and applies its local
// gradient. Synchronous like AR-SGD, but each round moves only 2M per
// worker instead of a full AllReduce, at the cost of slower information
// propagation (O(N) rounds around the ring).
const DPSGD Algo = "dpsgd"

// runDPSGD implements the ring-mixing decentralized SGD round. Workers are
// in lockstep with both neighbors; a neighbor can run at most one iteration
// ahead, so early messages are stashed by clock.
func runDPSGD(x *exp) {
	cfg := x.cfg
	W := cfg.Workers

	for w := 0; w < W; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("dpsgd-worker%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			bd := &x.col.Workers[w].Breakdown
			left := (w - 1 + W) % W
			right := (w + 1) % W
			var stash []simnet.Msg
			for it := 1; it <= cfg.Iters; it++ {
				// Fault schedules are rejected for DPSGD in Validate; the
				// gate only serves context cancellation here.
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				// The gradient (of the pre-mix parameters, as DPSGD
				// specifies) is not needed until after the neighbor mix;
				// the join rides inside localStep's settle at the end.
				gf, _ := x.computePhase(p, w, false)

				if W > 1 {
					var payload []float32
					if x.reps[w].mathOn() {
						payload = x.reps[w].Params()
					}
					for _, nb := range []int{left, right} {
						var vec []float32
						if payload != nil {
							vec = append([]float32(nil), payload...)
						}
						x.net.Send(simnet.Msg{From: x.workerNode[w], To: x.workerNode[nb],
							Kind: KindExchangeReq, Clock: it, Bytes: x.fullBytes(), Vec: vec})
					}

					// Collect both neighbors' round-it parameters; a faster
					// neighbor's it+1 message is stashed for the next round.
					need := 2
					if W == 2 {
						// left == right: the single neighbor sends twice.
						need = 2
					}
					var mix [][]float32
					t0 := p.Now()
					var wire des.Time
					take := func(m simnet.Msg) bool {
						if m.Kind != KindExchangeReq {
							panic(fmt.Sprintf("dpsgd worker: unexpected kind %d", m.Kind))
						}
						if m.Clock != it {
							return false
						}
						wire += m.WireSec
						mix = append(mix, m.Vec)
						return true
					}
					var keep []simnet.Msg
					for _, m := range stash {
						if len(mix) < need && take(m) {
							continue
						}
						keep = append(keep, m)
					}
					stash = keep
					for len(mix) < need {
						m := inbox.Recv(p)
						if !take(m) {
							stash = append(stash, m)
						}
					}
					bd.Add(metrics.Network, wire)
					bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)

					// x ← mean(self, neighbors)
					if x.reps[w].mathOn() {
						flat := x.reps[w].Params()
						inv := 1 / float32(len(mix)+1)
						for i := range flat {
							s := flat[i]
							for _, v := range mix {
								if v != nil {
									s += v[i]
								}
							}
							flat[i] = s * inv
						}
						x.reps[w].SetParams(flat)
					}
				}

				x.reps[w].LocalStep(gf.get(), 1, cfg.LR.At(it-1))
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
