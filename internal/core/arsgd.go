package core

import (
	"fmt"

	"disttrain/internal/comm"
	"disttrain/internal/des"
	"disttrain/internal/grad"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

// runARSGD implements decentralized synchronous AllReduce SGD (Section
// IV-A, the paper's AR-SGD built on MPICH): every iteration, all workers'
// gradients are summed with a ring AllReduce (Reduce-Scatter followed by
// All-Gather, exactly the MPI algorithm) and every worker applies the
// averaged gradient locally. No parameter server exists; all replicas stay
// bit-identical because they start identical and apply identical updates.
//
// With wait-free BP, the gradient is reduced in two buckets: the
// output-side half of the vector is all-reduced while the backward pass of
// the input-side half is still running — the bucketing strategy real DDP
// stacks use.
func runARSGD(x *exp) error {
	cfg := x.cfg
	W := cfg.Workers
	// Validate rejects the topology-aware variants combined with
	// faults/elastic, so their membership — and with it the plan's machine
	// groups or grid — is fixed for the run.
	plan, err := comm.Resolve(cfg.Collective, cfg.Cluster, W)
	if err != nil {
		return err
	}
	half := x.vecLen / 2
	if half == 0 {
		half = x.vecLen
	}

	for w := 0; w < W; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("arsgd-worker%d", w), func(p *des.Proc) {
			bd := &x.col.Workers[w].Breakdown
			// With fault injection the ring membership can change between
			// rounds, so a fast peer's next-round chunk may overtake the
			// current round's traffic; the per-round Clock tag plus this
			// stash keeps every round's messages separated. The topology-
			// aware collectives need it even with fixed membership: their
			// multi-phase patterns let a finished peer's next-round traffic
			// arrive while this rank still drains the current round.
			var stash []simnet.Msg
			stashP := &stash
			if x.inj == nil && !topoCollective(cfg.Collective) {
				stashP = nil // strict fixed-membership discipline
			}
			for it := 1; it <= cfg.Iters; it++ {
				nit, ok := x.barrierGate(p, w, it)
				if !ok {
					break
				}
				it = nit
				// Elastic mode shrinks the ring to this round's survivors;
				// faithful mode keeps every rank a member, so a dead peer
				// stalls the ring — AR-SGD's collapse under a crash.
				nodes, self := x.aliveNodes(it, w)
				inv := 1 / float32(len(nodes))
				gf, j := x.computePhase(p, w, cfg.WaitFreeBP)

				// The join is deferred into the branches below: under
				// wait-free BP the first half-backward sleep elapses before
				// the gradient is needed, stretching the overlap window.
				var agg []float32
				join := func() {
					if g := gf.get(); g != nil {
						agg = append([]float32(nil), g...)
						// Quantized AllReduce: each worker's own contribution
						// is quantized once before entering the collective —
						// the live runtime ships own-contribution chunks in
						// codec form and reconstructs with the same formula,
						// so sim and live observe identical inputs. Partial
						// sums stay dense on both paths.
						if cfg.Quantize8 {
							grad.QuantizeRoundTrip(agg)
						} else if cfg.QuantizeF16 {
							grad.QuantizeF16RoundTrip(agg)
						}
					}
				}
				// The sim cost model keeps dense per-hop Bytes even when the
				// input is quantized: only own-contribution chunks (the
				// ring's first reduce-scatter hop, tree leaf pushes, …) carry
				// codec payloads on the live path — partial sums travel
				// dense — so halving every hop would overstate the savings.
				// Real wire savings are measured on the live PS path.
				reduce := func(vec []float32, vlen int) des.Time {
					_, wire := collective(p, comm.CollectiveOpts{
						Op: plan.Op, Net: x.net, Nodes: nodes, Self: self,
						Vec: vec, VirtualLen: vlen, Bytes: x.bytesFor(vlen),
						Kind: kindAllReduce, Clock: it, Stash: stashP,
						Groups: plan.Groups, TorusRows: plan.TorusRows, TorusCols: plan.TorusCols})
					return wire
				}

				if cfg.WaitFreeBP && x.vecLen > 1 {
					// First half of the backward pass produces the
					// output-side gradients...
					bwd := x.bwdTotal(j)
					c0 := p.Now()
					p.Sleep(bwd / 2)
					bd.Add(metrics.Compute, p.Now()-c0)
					join()

					// ...whose AllReduce overlaps the second half of the
					// backward pass: if the reduce finishes first, the
					// worker still owes the remaining backward time.
					t0 := p.Now()
					var hi []float32
					if agg != nil {
						hi = agg[half:]
					}
					wire := reduce(hi, x.vecLen-half)
					bd.Add(metrics.Network, wire)
					bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
					if rem := bwd/2 - (p.Now() - t0); rem > 0 {
						p.Sleep(rem)
						bd.Add(metrics.Compute, rem)
					}

					t1 := p.Now()
					var lo []float32
					if agg != nil {
						lo = agg[:half]
					}
					wire = reduce(lo, half)
					bd.Add(metrics.Network, wire)
					bd.Add(metrics.GlobalAgg, p.Now()-t1-wire)
				} else {
					join()
					t0 := p.Now()
					wire := reduce(agg, x.vecLen)
					bd.Add(metrics.Network, wire)
					bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
				}

				x.reps[w].LocalStep(agg, inv, cfg.LR.At(it-1))
				x.iterDone(w, it)
			}
			x.finish(w)
		})
	}
	return nil
}
