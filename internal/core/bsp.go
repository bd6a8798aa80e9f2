package core

import (
	"fmt"
	"sort"

	"disttrain/internal/comm"
	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

// runBSP implements Bulk Synchronous Parallel training with parameter
// servers (Section III-A): every iteration, all workers' gradients are
// aggregated at the PS shards, the global parameters are updated once with
// the averaged gradient, and the new parameters are broadcast back. With
// LocalAgg enabled, workers on one machine first sum their gradients at a
// machine leader so only one gradient per machine crosses the network — the
// paper's local aggregation optimization that divides communication by l
// (GPUs per machine).
func runBSP(x *exp) {
	cfg := x.cfg
	W := cfg.Workers

	// Identify machine leaders (lowest worker index per machine).
	leaderOf := make([]int, W) // worker -> its machine leader
	var leaders []int          // distinct leaders in order
	for w := 0; w < W; w++ {
		m := cfg.Cluster.MachineOfWorker(w)
		l := m * cfg.Cluster.WorkersPerMachine
		leaderOf[w] = l
		if w == l {
			leaders = append(leaders, l)
		}
	}
	senders := W
	if cfg.LocalAgg {
		senders = len(leaders)
	}

	// Elastic fault mode re-derives each round's sender count from the
	// crash schedule (every process evaluates the same pure membership
	// function) and gives up on senders whose messages were lost to drop or
	// partition faults after the barrier timeout. Faithful mode keeps the
	// full-membership blocking barrier, reproducing BSP's throughput
	// collapse when a worker dies.
	elastic := x.inj != nil && cfg.Elastic

	// Shard processes: one synchronous aggregation round per iteration.
	for s := range x.assign {
		s := s
		x.eng.Spawn(fmt.Sprintf("bsp-ps%d", s), func(p *des.Proc) {
			inbox := x.psInbox(s)
			for it := 0; it < cfg.Iters; it++ {
				expect := senders
				scale := 1 / float32(W)
				if elastic && !cfg.LocalAgg {
					expect = x.aliveCount(it + 1)
					if expect == 0 {
						continue // nobody runs this round
					}
					scale = 1 / float32(expect)
				}
				var agg []float32
				if x.global.MathOn() {
					agg = make([]float32, x.vecLen)
				}
				recipients := make([]int, 0, expect)
				msgs := make([]simnet.Msg, 0, expect)
				lr := cfg.LR.At(it)
				for i := 0; i < expect; i++ {
					var m simnet.Msg
					if elastic {
						var ok bool
						if m, ok = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !ok {
							x.col.Faults.Timeouts++
							break // proceed with whoever arrived
						}
					} else {
						m = inbox.Recv(p)
					}
					psAggSleep(p, m.Bytes)
					msgs = append(msgs, m)
					recipients = append(recipients, m.From)
				}
				// Reduction-order contract, shared with the live runtime:
				// gradients are summed in ascending sender rank, not arrival
				// order. Float addition is order-sensitive, so pinning the
				// order is what lets a wall-clock TCP run reproduce the
				// simulator's parameters bit for bit. Replies below still go
				// out in arrival order, so virtual timing is unchanged.
				sort.Slice(msgs, func(i, j int) bool { return msgs[i].From < msgs[j].From })
				for _, m := range msgs {
					switch m.Kind {
					case kindSparseGrad:
						// DGC: plain sparse step per message; linearity
						// makes scale-per-message equal to one
						// aggregated step.
						x.global.ApplySparse(m.SparseIdx, m.Vec, scale, lr)
					case kindGrad:
						if agg != nil && m.Vec != nil {
							addRanges(agg, m.Vec, x.assign[s])
						}
					default:
						panic(fmt.Sprintf("bsp shard: unexpected kind %d", m.Kind))
					}
				}
				if cfg.DGC == nil {
					x.global.ApplyGrad(x.assign[s], agg, scale, lr)
				}
				for _, node := range recipients {
					x.net.Send(x.snapshotMsg(s, node))
				}
			}
		})
	}

	// Worker processes.
	for w := 0; w < W; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("bsp-worker%d", w), func(p *des.Proc) {
			isLeader := leaderOf[w] == w
			group := x.machineGroup(w)
			selfInGroup := w - leaderOf[w]
			machine := cfg.Cluster.MachineOfWorker(w)
			inbox := x.inbox(w)
			bd := &x.col.Workers[w].Breakdown

			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.barrierGate(p, w, it)
				if !ok {
					break
				}
				it = nit
				// Wait-free BP only helps when the worker's own backward
				// pass feeds the PS sends directly; with local aggregation
				// the gather barrier sits in between, so the backward must
				// simply complete first.
				overlap := cfg.WaitFreeBP && (!cfg.LocalAgg || len(group) == 1)
				gf, j := x.computePhase(p, w, overlap)
				grads := gf.get()

				if cfg.LocalAgg && len(group) > 1 {
					if isLeader {
						// Gather member gradients into a private aggregate.
						var aggVec []float32
						if grads != nil {
							aggVec = append([]float32(nil), grads...)
						}
						t0 := p.Now()
						_, wire := collective(p, comm.CollectiveOpts{
							Op: comm.OpGather, Net: x.net, Nodes: group, Self: selfInGroup,
							Vec: aggVec, Bytes: x.fullBytes(), Kind: kindLocalGather})
						bd.Add(metrics.Network, wire)
						bd.Add(metrics.LocalAgg, p.Now()-t0-wire)
						x.gatherDoneAt[machine] = p.Now()
						grads = aggVec
					} else {
						// Member: hand the gradient to the leader and wait
						// for the post-global broadcast below.
						var payload []float32
						if grads != nil {
							payload = append([]float32(nil), grads...)
						}
						collective(p, comm.CollectiveOpts{
							Op: comm.OpGather, Net: x.net, Nodes: group, Self: selfInGroup,
							Vec: payload, Bytes: x.fullBytes(), Kind: kindLocalGather})
					}
				}

				if !cfg.LocalAgg || isLeader {
					x.sendGrads(p, w, it, grads, true, j, overlap)

					// Await all shard replies.
					t0 := p.Now()
					var wire des.Time
					fresh := make([]float32, 0)
					if x.reps[w].mathOn() {
						fresh = x.reps[w].Params()
					}
					for recv := 0; recv < len(x.assign); recv++ {
						var m simnet.Msg
						if elastic {
							var okr bool
							if m, okr = inbox.RecvTimeout(p, cfg.BarrierTimeoutSec); !okr {
								x.col.Faults.Timeouts++
								break // reply lost; keep the stale shard params
							}
						} else {
							m = inbox.Recv(p)
						}
						if m.Kind != kindParams {
							panic(fmt.Sprintf("bsp worker: unexpected kind %d", m.Kind))
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
					if x.reps[w].mathOn() {
						x.reps[w].SetParams(fresh)
					}
					if cfg.LocalAgg && len(group) > 1 {
						// Relay the fresh parameters to machine members.
						var payload []float32
						if len(fresh) > 0 {
							payload = fresh
						}
						collective(p, comm.CollectiveOpts{
							Op: comm.OpBroadcast, Net: x.net, Nodes: group, Self: selfInGroup,
							Vec: payload, Bytes: x.fullBytes(), Kind: kindLocalBcast})
					}
				} else {
					// Member: block for the leader's broadcast.
					t0 := p.Now()
					m := inbox.Recv(p)
					if m.Kind != kindLocalBcast {
						panic(fmt.Sprintf("bsp member: unexpected kind %d", m.Kind))
					}
					bd.Add(metrics.Network, m.WireSec)
					// Split the wait: until the leader finished gathering it
					// was local aggregation; the rest was the global round.
					localWait := x.gatherDoneAt[machine] - t0
					if localWait < 0 {
						localWait = 0
					}
					if rest := p.Now() - t0 - m.WireSec; rest > 0 {
						if localWait > rest {
							localWait = rest
						}
						bd.Add(metrics.LocalAgg, localWait)
						bd.Add(metrics.GlobalAgg, rest-localWait)
					}
					x.reps[w].SetParams(m.Vec)
				}
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
}
