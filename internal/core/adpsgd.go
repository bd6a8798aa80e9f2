package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

// runADPSGD implements Asynchronous Decentralized Parallel SGD (Section
// IV-C, after Lian et al.): workers are split into a bipartite graph of
// active and passive peers — actives initiate a *symmetric* exchange with a
// random passive peer each iteration and both sides average their
// parameters. The bipartite split is the paper's deadlock-avoidance
// mechanism: actives never wait on other actives, so the wait-for graph is
// acyclic (see TestADPSGDDeadlockWithoutBipartite for the counterexample).
//
// Following the paper's implementation, computation and communication run
// in two separate threads per worker: the compute process trains
// continuously while the communication process exchanges parameters in the
// background, pacing one exchange per completed iteration.
func runADPSGD(x *exp) {
	if x.cfg.ADPSGDNoBipartite {
		runADPSGDUnconstrained(x)
		return
	}
	cfg := x.cfg
	W := cfg.Workers

	// Bipartite split: even worker indices are active, odd are passive.
	var passive []int
	for w := 1; w < W; w += 2 {
		passive = append(passive, w)
	}

	// With a sparse overlay, each active draws only from its odd-parity
	// overlay neighbors — gossip restricted to the graph's edges. An active
	// whose neighborhood happens to be all-even falls back to the full
	// passive set so it still participates in averaging.
	partnerBase := func(w int) []int {
		if x.overlay == nil {
			return passive
		}
		var base []int
		for _, pe := range x.overlay.Neighbors[w] {
			if pe%2 == 1 {
				base = append(base, pe)
			}
		}
		if len(base) == 0 {
			return passive
		}
		return base
	}

	for w := 0; w < W; w++ {
		w := w
		tokens := des.NewQueue[int](x.eng)

		// Compute process: train continuously on (possibly mid-averaging)
		// local parameters, exactly the lock-free behavior AD-PSGD allows.
		// A restart just pauses the token stream; the closing sentinel
		// (pushed on completion or permanent death) retires the comm
		// process.
		x.eng.Spawn(fmt.Sprintf("adpsgd-compute%d", w), func(p *des.Proc) {
			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, _ := x.computePhase(p, w, false)
				// The pass read the parameters as of its submission point;
				// a background exchange averaging into the model during the
				// compute window no longer bleeds into this gradient — the
				// lock-free semantics of Lian et al., made deterministic.
				x.reps[w].LocalStep(gf.get(), 1, cfg.LR.At(it-1))
				tokens.Push(it)
				x.iterDone(w, it)
			}
			tokens.Push(-1)
			x.finish(w)
		})

		active := w%2 == 0 && len(passive) > 0
		if active {
			// Active communication process: one symmetric exchange per
			// completed compute iteration.
			x.eng.Spawn(fmt.Sprintf("adpsgd-comm%d", w), func(p *des.Proc) {
				inbox := x.inbox(w)
				bd := &x.col.Workers[w].Breakdown
				r := x.streams[w].Algo
				for {
					it := tokens.Recv(p)
					if it < 0 {
						break
					}
					// Under fault injection the partner draw avoids peers
					// that are dead (now or within the exchange's horizon)
					// or partitioned away — AD-PSGD's natural elasticity.
					base := partnerBase(w)
					cands := base
					if x.inj != nil {
						now := p.Now()
						mean := x.inj.MeanIterSec()
						myM := cfg.Cluster.MachineOfWorker(w)
						cands = nil
						for _, pe := range base {
							if x.inj.DeadAt(pe, now) || x.inj.DeadAt(pe, now+mean) {
								continue
							}
							if x.inj.Partitioned(now, myM, cfg.Cluster.MachineOfWorker(pe)) {
								continue
							}
							cands = append(cands, pe)
						}
						if len(cands) == 0 {
							x.col.Faults.SkippedExchanges++
							continue
						}
						if len(cands) < len(base) {
							x.col.Faults.Redraws++
						}
					}
					peer := cands[r.Intn(len(cands))]
					var payload []float32
					if x.reps[w].mathOn() {
						payload = x.reps[w].Params()
					}
					x.net.Send(simnet.Msg{From: x.workerNode[w], To: x.workerNode[peer],
						Kind: KindExchangeReq, Clock: it, Bytes: x.fullBytes(), Vec: payload})
					t0 := p.Now()
					var m simnet.Msg
					if x.inj != nil {
						var ok bool
						if m, ok = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !ok {
							// Request or reply lost in flight; skip the
							// averaging and keep training.
							x.col.Faults.Timeouts++
							continue
						}
					} else {
						m = inbox.Recv(p)
					}
					if m.Kind != KindExchangeReply {
						panic(fmt.Sprintf("adpsgd active: unexpected kind %d", m.Kind))
					}
					bd.Add(metrics.Network, m.WireSec)
					bd.Add(metrics.GlobalAgg, p.Now()-t0-m.WireSec)
					x.reps[w].Average(m.Vec)
				}
			})
		} else if !active && w%2 == 1 {
			// Passive communication process: reply to every exchange
			// request with the current parameters, then fold the active's
			// parameters in. Runs until killed at experiment teardown.
			x.eng.Spawn(fmt.Sprintf("adpsgd-passive%d", w), func(p *des.Proc) {
				inbox := x.inbox(w)
				bd := &x.col.Workers[w].Breakdown
				for {
					m := inbox.Recv(p)
					if m.Kind != KindExchangeReq {
						panic(fmt.Sprintf("adpsgd passive: unexpected kind %d", m.Kind))
					}
					if x.inj != nil && x.inj.DeadAt(w, p.Now()) {
						// A dead peer answers nothing; the active side's
						// timeout absorbs the loss.
						x.col.Faults.SkippedExchanges++
						continue
					}
					var payload []float32
					if x.reps[w].mathOn() {
						payload = x.reps[w].Params()
					}
					x.net.Send(simnet.Msg{From: x.workerNode[w], To: m.From,
						Kind: KindExchangeReply, Clock: m.Clock, Bytes: x.fullBytes(), Vec: payload})
					bd.Add(metrics.Network, m.WireSec)
					x.reps[w].Average(m.Vec)
				}
			})
		}
	}
}

// runADPSGDUnconstrained is the ablation of AD-PSGD's deadlock-avoidance
// design: every worker both initiates symmetric exchanges with arbitrary
// peers and answers incoming requests, but — like a naive implementation —
// only answers *between* its own exchanges. Section IV-C's scenario (A
// waits on B, B waits on C, C waits on A) then deadlocks the communication
// threads; the training threads keep computing, so the run degenerates into
// isolated local training. Result.StuckProcs exposes the deadlocked
// processes.
func runADPSGDUnconstrained(x *exp) {
	cfg := x.cfg
	W := cfg.Workers

	for w := 0; w < W; w++ {
		w := w
		tokens := des.NewQueue[int](x.eng)

		x.eng.Spawn(fmt.Sprintf("adpsgd-compute%d", w), func(p *des.Proc) {
			for it := 1; it <= cfg.Iters; it++ {
				// Fault schedules are rejected for the no-bipartite
				// ablation in Validate; the gate only serves context
				// cancellation here.
				nit, ok := x.gate(p, w, it)
				if !ok {
					break
				}
				it = nit
				gf, _ := x.computePhase(p, w, false)
				x.reps[w].LocalStep(gf.get(), 1, cfg.LR.At(it-1))
				tokens.Push(it)
				x.iterDone(w, it)
			}
			x.finish(w)
		})

		x.eng.Spawn(fmt.Sprintf("adpsgd-comm%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			r := x.streams[w].Algo
			serve := func(m simnet.Msg) {
				var payload []float32
				if x.reps[w].mathOn() {
					payload = x.reps[w].Params()
				}
				x.net.Send(simnet.Msg{From: x.workerNode[w], To: m.From,
					Kind: KindExchangeReply, Clock: m.Clock, Bytes: x.fullBytes(), Vec: payload})
				x.reps[w].Average(m.Vec)
			}
			var stash []simnet.Msg
			for it := 1; it <= cfg.Iters; it++ {
				tokens.Recv(p)
				// Serve requests that arrived while we were idle.
				for _, m := range stash {
					serve(m)
				}
				stash = stash[:0]
				for {
					m, ok := inbox.TryRecv()
					if !ok {
						break
					}
					serve(m)
				}
				// Initiate our own exchange and hold everything else until
				// it completes — the deadlock-prone discipline.
				var peer int
				if x.overlay != nil {
					nb := x.overlay.Neighbors[w]
					peer = nb[r.Intn(len(nb))]
				} else {
					peer = r.Intn(W - 1)
					if peer >= w {
						peer++
					}
				}
				var payload []float32
				if x.reps[w].mathOn() {
					payload = x.reps[w].Params()
				}
				x.net.Send(simnet.Msg{From: x.workerNode[w], To: x.workerNode[peer],
					Kind: KindExchangeReq, Clock: it, Bytes: x.fullBytes(), Vec: payload})
				for {
					m := inbox.Recv(p)
					if m.Kind == KindExchangeReply {
						x.reps[w].Average(m.Vec)
						break
					}
					stash = append(stash, m)
				}
			}
		})
	}
}
