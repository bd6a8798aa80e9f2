package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/simnet"
)

// runEASGD implements Elastic Averaging SGD (Section III-D, after Zhang et
// al.): workers train locally and only every τ iterations exchange
// *parameters* with the PS, which performs the symmetric elastic move
// x̃ += α(xᵢ − x̃), xᵢ −= α(xᵢ − x̃). Following the paper's implementation,
// both the global and the worker's local parameters are updated on the PS in
// one visit, and the PS sends back the updated local parameters (not the
// global ones).
//
// AdaComm (adacomm.go) is the same protocol with a per-worker adaptive
// period in place of the fixed τ.
func runEASGD(x *exp) {
	cfg := x.cfg

	x.spawnShards()

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("%s-worker%d", cfg.Algo, w), func(p *des.Proc) {
			due := func(it int) bool { return it%cfg.Tau == 0 }
			if cfg.Algo == AdaComm {
				due = x.adaCommPeriod(w)
			}
			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, _ := x.computePhase(p, w, false)
				x.reps[w].LocalStep(gf.get(), 1, cfg.LR.At(it-1))

				if due(it) {
					// Push the local parameters to every shard, which moves
					// its ranges of both copies elastically, and take back
					// the updated local parameters. Under faults a dropped
					// push or reply is given up on after the timeout and
					// local training resumes.
					params := x.reps[w].Params() // nil in cost-only mode
					for s := range x.assign {
						var payload []float32
						if params != nil {
							payload = append([]float32(nil), params...)
						}
						x.net.Send(simnet.Msg{From: x.workerNode[w], To: x.psNode[s],
							Kind: kindEASGDPush, Clock: it, Seg: s,
							Bytes: x.shardBytes(s), Vec: payload})
					}
					x.awaitShards(p, w, kindEASGDReply, x.inj != nil, nil)
				}
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
