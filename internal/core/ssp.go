package core

import (
	"fmt"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
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
	s := cfg.Staleness

	type pending struct {
		worker int // node to reply to
		clock  int
	}

	elastic := x.inj != nil && cfg.Elastic

	for sh := range x.assign {
		sh := sh
		x.eng.Spawn(fmt.Sprintf("ssp-ps%d", sh), func(p *des.Proc) {
			inbox := x.psInbox(sh)
			clocks := make([]int, cfg.Workers)
			var parked []pending
			minClock := func() int {
				// Elastic mode excludes currently dead workers from the
				// staleness bound so a crash does not park every fast
				// worker for the rest of the run.
				m := -1
				for ww, c := range clocks {
					if elastic && x.inj.DeadAt(ww, p.Now()) {
						continue
					}
					if m < 0 || c < m {
						m = c
					}
				}
				if m < 0 {
					m = clocks[0]
				}
				return m
			}
			release := func() bool {
				mc := minClock()
				hit := false
				keep := parked[:0]
				for _, pk := range parked {
					if mc >= pk.clock-s {
						x.net.Send(x.snapshotMsg(0, pk.worker))
						hit = true
					} else {
						keep = append(keep, pk)
					}
				}
				parked = keep
				return hit
			}
			// fruitless caps the elastic re-check spin: while pulls are
			// parked the shard wakes on a timeout to re-evaluate liveness,
			// but after a few barren wakeups it goes back to blocking so an
			// otherwise-finished run can drain.
			fruitless := 0
			for {
				var m simnet.Msg
				if elastic && sh == 0 && len(parked) > 0 && fruitless < 3 {
					var ok bool
					if m, ok = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !ok {
						x.col.Faults.Timeouts++
						fruitless++
						if release() {
							fruitless = 0
						}
						continue
					}
				} else {
					m = inbox.Recv(p)
				}
				fruitless = 0
				switch m.Kind {
				case kindGrad, kindSparseGrad:
					psAggSleep(p, m.Bytes)
					// Petuum-style SSP: workers send their locally applied
					// *updates* (deltas); the PS simply accumulates them
					// into the global parameters.
					if m.Kind == kindSparseGrad {
						x.global.ApplySparse(m.SparseIdx, m.Vec, -1, 1)
					} else {
						x.global.AddDelta(x.assign[sh], m.Vec)
					}
					if sh == 0 {
						clocks[m.From] = m.Clock
						// Tiny ack carrying the minimum clock.
						x.net.Send(simnet.Msg{From: x.psNode[0], To: m.From,
							Kind: kindAck, Clock: minClock(), Bytes: 16})
						// Release parked pulls whose bound is now met.
						release()
					}
				case kindPull:
					if sh == 0 && minClock() < m.Clock-s {
						parked = append(parked, pending{worker: m.From, clock: m.Clock})
					} else {
						x.net.Send(x.snapshotMsg(sh, m.From))
					}
				default:
					panic(fmt.Sprintf("ssp shard: unexpected kind %d", m.Kind))
				}
			}
		})
	}

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("ssp-worker%d", w), func(p *des.Proc) {
			inbox := x.inbox(w)
			bd := &x.col.Workers[w].Breakdown
			lastMin := 0
			sinceRefresh := 0
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
					if m.Clock > lastMin {
						lastMin = m.Clock
					}
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
					x.reps[w].LocalStep(gf.get(), cfg.LR.At(it-1))
					delta = x.reps[w].Params()
					for i := range delta {
						delta[i] -= before[i]
					}
				}
				x.sendGrads(p, w, it, delta, true, j, cfg.WaitFreeBP)
				drain()

				// A worker must refresh its locally cached parameters from
				// the PS when they are more than s clocks old (Petuum SSP's
				// bounded-staleness read), and must additionally block
				// whenever it runs more than s clocks ahead of the slowest
				// worker. The periodic refresh is what gives SSP its
				// (1 + 1/(s+1))·MN communication complexity.
				sinceRefresh++
				if sinceRefresh > s || it-lastMin > s {
					// Staleness bound exceeded: pull the aggregated global
					// parameters and block until shard 0 releases us.
					for sh := range x.assign {
						x.net.Send(simnet.Msg{From: x.workerNode[w], To: x.psNode[sh],
							Kind: kindPull, Clock: it, Bytes: 16})
					}
					t0 := p.Now()
					var wire des.Time
					var fresh []float32
					if x.reps[w].mathOn() {
						fresh = x.reps[w].Params()
					}
					for recv := 0; recv < len(x.assign); {
						var m simnet.Msg
						if elastic {
							var okr bool
							if m, okr = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !okr {
								// Pull lost or still parked behind a dead
								// worker: give up on this refresh.
								x.col.Faults.Timeouts++
								recv = len(x.assign)
								continue
							}
						} else {
							m = inbox.Recv(p)
						}
						switch m.Kind {
						case kindAck:
							if m.Clock > lastMin {
								lastMin = m.Clock
							}
						case kindParams:
							wire += m.WireSec
							if m.Vec != nil {
								for _, r := range x.assign[m.Seg] {
									copy(fresh[r.Off:r.Off+r.Len], m.Vec[r.Off:r.Off+r.Len])
								}
							}
							recv++
						default:
							panic(fmt.Sprintf("ssp worker: unexpected kind %d", m.Kind))
						}
					}
					bd.Add(metrics.Network, wire)
					bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
					x.reps[w].SetParams(fresh)
					sinceRefresh = 0
					if lastMin < it-s {
						// Shard 0 only releases when the bound holds.
						lastMin = it - s
					}
				}
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
