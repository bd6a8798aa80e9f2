package core

import (
	"fmt"

	"disttrain/internal/comm"
	"disttrain/internal/des"
	"disttrain/internal/metrics"
)

// runGradPS is the worker side of the two algorithms that push a gradient to
// every PS shard each iteration and wait for the parameters it answers with;
// what the shards do in between (ps.Shard) is the difference.
//
// Bulk Synchronous Parallel (Section III-A): every iteration, all workers'
// gradients are aggregated at the PS shards, the global parameters are
// updated once with the averaged gradient, and the new parameters are
// broadcast back. With LocalAgg enabled, workers on one machine first sum
// their gradients at a machine leader so only one gradient per machine
// crosses the network — the paper's local aggregation optimization that
// divides communication by l (GPUs per machine).
//
// Asynchronous Parallel (Section III-B): each shard applies every arriving
// gradient immediately and sends the updated parameters straight back to
// that worker — no worker ever waits for another, but every worker
// round-trips the full model through the PS each iteration, which makes the
// PS the bottleneck on a slow network (the paper's headline ASP finding).
// The shard serves messages in arrival order; the simulated NIC, not
// goroutine structure, is the shared resource.
func runGradPS(x *exp) {
	cfg := x.cfg

	// BSP workers stop at the barrier gate, and only elastic fault mode
	// gives up on shard replies lost to drop or partition faults (faithful
	// mode blocks). A dropped gradient or reply must never wedge an
	// asynchronous worker: under any fault schedule it gives up after the
	// timeout and trains on with the stale shard params.
	gate, timed := x.barrierGate, x.inj != nil && cfg.Elastic
	if cfg.Algo == ASP {
		gate, timed = x.gate, x.inj != nil
	}

	x.spawnShards()

	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("%s-worker%d", cfg.Algo, w), func(p *des.Proc) {
			// The machine leader is the lowest worker index on the machine.
			machine := cfg.Cluster.MachineOfWorker(w)
			leader := machine * cfg.Cluster.WorkersPerMachine
			isLeader := leader == w
			group := x.machineGroup(w)
			selfInGroup := w - leader
			inbox := x.inbox(w)
			bd := &x.col.Workers[w].Breakdown

			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := gate(p, w, it)
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

					fresh := x.awaitShards(p, w, kindParams, timed, nil)
					if cfg.LocalAgg && len(group) > 1 {
						// Relay the fresh parameters to machine members.
						collective(p, comm.CollectiveOpts{
							Op: comm.OpBroadcast, Net: x.net, Nodes: group, Self: selfInGroup,
							Vec: fresh, Bytes: x.fullBytes(), Kind: kindLocalBcast})
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
