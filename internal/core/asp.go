package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

// runASP implements Asynchronous Parallel training (Section III-B): each PS
// shard applies every arriving gradient to the global parameters
// immediately and sends the updated parameters straight back to that worker
// — no worker ever waits for another, but every worker round-trips the full
// model through the PS each iteration, which makes the PS the bottleneck on
// a slow network (the paper's headline ASP finding).
//
// Mirroring the paper's implementation, each shard communicates with
// workers through per-worker logic (our shard process serves messages in
// arrival order; the simulated NIC, not goroutine structure, is the shared
// resource).
func runASP(x *exp) {
	cfg := x.cfg

	// Shard server loops: run forever; Engine.Kill reaps them at the end.
	for s := range x.assign {
		s := s
		x.eng.Spawn(fmt.Sprintf("asp-ps%d", s), func(p *des.Proc) {
			inbox := x.psInbox(s)
			// Staleness damping (extension): track how many global updates
			// each worker's current parameters have missed and shrink its
			// gradient's step accordingly.
			updates := 0
			pulledAt := make([]int, cfg.Workers)
			for {
				m := inbox.Recv(p)
				psAggSleep(p, m.Bytes)
				lr := cfg.LR.At(m.Clock - 1)
				if cfg.StalenessDamping {
					staleness := updates - pulledAt[m.From]
					lr /= float32(1 + staleness)
				}
				updates++
				pulledAt[m.From] = updates
				switch m.Kind {
				case kindSparseGrad:
					x.global.ApplySparse(m.SparseIdx, m.Vec, 1, lr)
				case kindGrad:
					x.global.ApplyGrad(x.assign[s], m.Vec, 1, lr)
				default:
					panic(fmt.Sprintf("asp shard: unexpected kind %d", m.Kind))
				}
				x.net.Send(x.snapshotMsg(s, m.From))
			}
		})
	}

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("asp-worker%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			bd := &x.col.Workers[w].Breakdown
			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, j := x.computePhase(p, w, cfg.WaitFreeBP)
				x.sendGrads(p, w, it, gf.get(), true, j, cfg.WaitFreeBP)

				t0 := p.Now()
				var wire des.Time
				var fresh []float32
				if x.reps[w].mathOn() {
					fresh = x.reps[w].Params()
				}
				for recv := 0; recv < len(x.assign); recv++ {
					var m simnet.Msg
					if x.inj != nil {
						// A dropped gradient or reply must not wedge an
						// asynchronous worker: give up after the timeout
						// and train on with the stale shard params.
						var okr bool
						if m, okr = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !okr {
							x.col.Faults.Timeouts++
							break
						}
					} else {
						m = inbox.Recv(p)
					}
					if m.Kind != kindParams {
						panic(fmt.Sprintf("asp worker: unexpected kind %d", m.Kind))
					}
					wire += m.WireSec
					if m.Vec != nil {
						for _, r := range x.assign[m.Seg] {
							copy(fresh[r.Off:r.Off+r.Len], m.Vec[r.Off:r.Off+r.Len])
						}
					}
				}
				bd.Add(metrics.Network, wire)
				bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
				x.reps[w].SetParams(fresh)
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
