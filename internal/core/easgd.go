package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

// runEASGD implements Elastic Averaging SGD (Section III-D, after Zhang et
// al.): workers train locally and only every τ iterations exchange
// *parameters* with the PS, which performs the symmetric elastic move
// x̃ += α(xᵢ − x̃), xᵢ −= α(xᵢ − x̃). Following the paper's implementation,
// both the global and the worker's local parameters are updated on the PS in
// one visit, and the PS sends back the updated local parameters (not the
// global ones).
func runEASGD(x *exp) {
	cfg := x.cfg
	alpha := float32(cfg.MovingRate)

	for s := range x.assign {
		s := s
		x.eng.Spawn(fmt.Sprintf("easgd-ps%d", s), func(p *des.Proc) {
			inbox := x.psInbox(s)
			for {
				m := inbox.Recv(p)
				if m.Kind != kindEASGDPush {
					panic(fmt.Sprintf("easgd shard: unexpected kind %d", m.Kind))
				}
				psAggSleep(p, m.Bytes)
				// ElasticUpdate mutates m.Vec in place over this shard's
				// ranges; the reply carries the updated local parameters.
				x.global.ElasticUpdate(x.assign[s], m.Vec, alpha)
				x.net.Send(simnet.Msg{From: x.psNode[s], To: m.From,
					Kind: kindEASGDReply, Seg: s, Bytes: x.shardBytes(s), Vec: m.Vec})
			}
		})
	}

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("easgd-worker%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			bd := &x.col.Workers[w].Breakdown
			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, _ := x.computePhase(p, w, false)
				x.reps[w].LocalStep(gf.get(), cfg.LR.At(it-1))

				if it%cfg.Tau == 0 {
					// Push local parameters to every shard; each shard
					// elastically updates its ranges and returns them.
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
					t0 := p.Now()
					var wire des.Time
					for recv := 0; recv < len(x.assign); recv++ {
						var m simnet.Msg
						if x.inj != nil {
							// Don't wedge on a dropped push or reply:
							// resume local training after the timeout.
							var okr bool
							if m, okr = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !okr {
								x.col.Faults.Timeouts++
								break
							}
						} else {
							m = inbox.Recv(p)
						}
						if m.Kind != kindEASGDReply {
							panic(fmt.Sprintf("easgd worker: unexpected kind %d", m.Kind))
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
