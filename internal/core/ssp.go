package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/ps"
	"disttrain/internal/simnet"
)

// runSSP implements Stale Synchronous Parallel training (Section III-C,
// after Ho et al.): every iteration a worker sends its gradients to the PS
// and — in parallel, as in the paper's implementation — applies them to its
// own local parameters and keeps going. Only when the worker's clock runs
// more than s iterations ahead of the slowest worker does it request the
// aggregated global parameters and block until the staleness bound is
// restored.
//
// Shard 0 doubles as the clock service: it tracks every worker's clock from
// the gradient messages, piggybacks the minimum clock on tiny acks, and
// parks pull requests until min ≥ clock − s.
func runSSP(x *exp) {
	cfg := x.cfg

	x.spawnShards()

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("ssp-worker%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			bound := ps.Bound{S: cfg.Staleness}
			drain := func() {
				for {
					m, ok := inbox.TryRecv()
					if !ok {
						return
					}
					if m.Kind == kindParams && x.inj != nil {
						// A reply released after this worker's pull timed
						// out; its refresh was already given up on.
						continue
					}
					if m.Kind != kindAck {
						panic(fmt.Sprintf("ssp worker drain: unexpected kind %d", m.Kind))
					}
					bound.Ack(m.Clock)
				}
			}
			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, j := x.computePhase(p, w, cfg.WaitFreeBP)

				// The paper's parallel tasks: (i) ship the computed update
				// to the PS, (ii) apply it locally; neither waits for the
				// other. Following Ho et al., what travels is the worker's
				// locally applied *update* (same wire size as the gradient).
				var delta []float32
				if x.reps[w].mathOn() {
					before := x.reps[w].Params()
					x.reps[w].LocalStep(gf.get(), 1, cfg.LR.At(it-1))
					delta = x.reps[w].Params()
					for i := range delta {
						delta[i] -= before[i]
					}
				}
				x.sendGrads(p, w, it, delta, true, j, cfg.WaitFreeBP)
				drain()

				if bound.Stale(it) {
					// Staleness bound exceeded: pull the aggregated global
					// parameters and block until shard 0 releases us. In
					// elastic mode a pull that is lost, or still parked behind
					// a dead worker, is given up on after the timeout.
					for sh := range x.assign {
						x.net.Send(simnet.Msg{From: x.workerNode[w], To: x.psNode[sh],
							Kind: kindPull, Clock: it, Bytes: 16})
					}
					x.awaitShards(p, w, kindParams, x.inj != nil && cfg.Elastic, bound.Ack)
					bound.Refreshed(it)
				}
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
