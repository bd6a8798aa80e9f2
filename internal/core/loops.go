package core

import (
	"fmt"

	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/topo"
)

// Env is one worker's world: what an algorithm's iteration loop needs beyond
// its own Replica. The loops in this file own protocol order only — which
// step follows which, what is sent when — and are each written once. What a
// step costs, and how its bytes travel, sits behind the Env: the simulator's
// (simEnv, on a des process) models virtual compute time, paper-scale wire
// sizes, sharded sends, wait-free BP and the fault-mode timeouts; the live
// runtime's (internal/live's worker) owns sockets, codec frames, spans and
// checkpoints. A method that moves parameters installs them in the replica
// itself, so a loop never touches a transport buffer.
type Env interface {
	// Gate opens iteration it. It returns the iteration to run — later than
	// it when a crash schedule (or a checkpoint restore) makes the worker
	// skip ahead — or ok = false when the worker's run is over.
	Gate(it int) (next int, ok bool, err error)
	// Members returns the workers that take part in round it, ascending, and
	// the caller's index among them.
	Members(it int) (nodes []int, self int)

	// Compute starts the iteration's forward/backward pass and lets its time
	// elapse; overlap says the send that follows interleaves with the
	// backward pass (wait-free BP). Grad joins the pass and returns the
	// gradient: the model's own store, the caller's to fold into until the
	// next pass, nil without real math.
	Compute(overlap bool)
	Grad() []float32

	// AllReduce joins the pass and sums its gradient over the round's
	// members, returning the sum.
	AllReduce(it int, nodes []int, self int) ([]float32, error)
	// GatherSum folds the vectors of a machine's workers into the leader's
	// (member 0 of group); Bcast installs the leader's params in every other
	// member's replica. Members pass nil.
	GatherSum(it int, group []int, self int, vec []float32) error
	Bcast(it int, group []int, self int, params []float32) error

	// Exchange is one round trip through the parameter server: ship vec as a
	// message of the given kind (ps.Grad, ps.Pull, ps.Push), block for the
	// answer and install the parameters it carries. Update is SSP's
	// fire-and-forget gradient push. Acks hands ack the minimum clock of
	// every SSP ack that has arrived; Exchange does the same for acks that
	// overtake its answer.
	Exchange(kind ps.Kind, it int, vec []float32, ack func(minClock int)) error
	Update(it int, vec []float32) error
	Acks(ack func(minClock int)) error

	// Reachable filters base down to the gossip partners a push can reach
	// right now. ToPeer pushes vec and the mixing weight aux to a peer
	// without waiting; FromPeers hands merge every push that has arrived.
	Reachable(base []int) []int
	ToPeer(to, it int, aux float64, vec []float32) error
	FromPeers(merge func(vec []float32, aux float64)) error

	// Done closes iteration it: progress, evaluation, checkpoints.
	Done(it int) error
}

// WorkerLoop runs worker rank through cfg.Iters iterations of cfg.Algo over
// e, on the replica and streams DeriveStreams and NewReplica gave that rank;
// ov is BuildOverlay's. It is the one place BSP, ASP, SSP, EASGD/AdaComm,
// AR-SGD and GoSGD are written down: the simulator enters it from one
// process per worker, the live runtime from one OS process (or goroutine)
// per worker. An error from e ends the loop and comes back unchanged.
func WorkerLoop(e Env, cfg *Config, rank int, rep *Replica, s Streams, ov *topo.Overlay) error {
	switch cfg.Algo {
	case BSP, ASP:
		return loopGradPS(e, cfg, rank, rep)
	case SSP:
		return loopSSP(e, cfg, rep)
	case EASGD, AdaComm:
		return loopEASGD(e, cfg, rep)
	case ARSGD:
		return loopARSGD(e, cfg, rep)
	case GoSGD:
		return loopGoSGD(e, cfg, rep, s.Algo, gossipBase(cfg, ov, rank))
	}
	return fmt.Errorf("core: no worker loop for %s", cfg.Algo)
}

// iterate is the frame every loop shares: gate each iteration — skipping
// ahead or stopping as the gate says — run body, close the iteration.
func iterate(e Env, cfg *Config, body func(it int) error) error {
	for it := 1; it <= cfg.Iters; it++ {
		next, ok, err := e.Gate(it)
		if err != nil || !ok {
			return err
		}
		it = next
		if err := body(it); err != nil {
			return err
		}
		if err := e.Done(it); err != nil {
			return err
		}
	}
	return nil
}

// loopGradPS is the worker side of the two algorithms that push a gradient to
// the parameter server each iteration and wait for the parameters it answers
// with; what the shards do in between (ps.Shard) is the difference.
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
func loopGradPS(e Env, cfg *Config, rank int, rep *Replica) error {
	// The machine leader is the lowest worker index on the machine; a worker
	// alone on its machine pushes for itself.
	var group []int
	self := 0
	if cfg.LocalAgg {
		group, self = MachineGroup(cfg, rank)
	}
	local := len(group) > 1
	// Wait-free BP only helps when the worker's own backward pass feeds the
	// PS sends directly; with local aggregation the gather barrier sits in
	// between, so the backward must simply complete first.
	overlap := cfg.WaitFreeBP && !local
	return iterate(e, cfg, func(it int) error {
		e.Compute(overlap)
		g := e.Grad()
		if local {
			if err := e.GatherSum(it, group, self, g); err != nil {
				return err
			}
			if self != 0 {
				// Member: the gradient is with the leader; block for the
				// parameters it relays after the global round.
				return e.Bcast(it, group, self, nil)
			}
		}
		if err := e.Exchange(ps.Grad, it, g, nil); err != nil || !local {
			return err
		}
		return e.Bcast(it, group, self, rep.Params())
	})
}

// MachineGroup returns the workers sharing rank's machine (those that exist
// given cfg.Workers), ascending, and rank's index among them: local
// aggregation's gather/broadcast group, led by member 0.
func MachineGroup(cfg *Config, rank int) (group []int, self int) {
	for _, w := range cfg.Cluster.WorkersOnMachine(cfg.Cluster.MachineOfWorker(rank)) {
		if w < cfg.Workers {
			group = append(group, w)
		}
	}
	return group, rank - group[0]
}

// loopSSP implements Stale Synchronous Parallel training (Section III-C,
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
func loopSSP(e Env, cfg *Config, rep *Replica) error {
	bound := ps.Bound{S: cfg.Staleness}
	ack := bound.Ack
	return iterate(e, cfg, func(it int) error {
		e.Compute(cfg.WaitFreeBP)
		// The paper's parallel tasks: (i) ship the computed update to the
		// PS, (ii) apply it locally; neither waits for the other. Following
		// Ho et al., what travels is the worker's locally applied *update*
		// (same wire size as the gradient), and the local replica keeps the
		// step as taken whatever codec the update ships in.
		var delta []float32
		if g := e.Grad(); g != nil {
			before := rep.Params()
			rep.LocalStep(g, 1, cfg.LR.At(it-1))
			delta = rep.Params()
			for i := range delta {
				delta[i] -= before[i]
			}
		}
		if err := e.Update(it, delta); err != nil {
			return err
		}
		if err := e.Acks(ack); err != nil {
			return err
		}
		if bound.Stale(it) {
			// Staleness bound exceeded: pull the aggregated global
			// parameters and block until shard 0 releases us.
			if err := e.Exchange(ps.Pull, it, nil, ack); err != nil {
				return err
			}
			bound.Refreshed(it)
		}
		return nil
	})
}

// loopEASGD implements Elastic Averaging SGD (Section III-D, after Zhang et
// al.): workers train locally and only every τ iterations exchange
// *parameters* with the PS, which performs the symmetric elastic move
// x̃ += α(xᵢ − x̃), xᵢ −= α(xᵢ − x̃). Following the paper's implementation,
// both the global and the worker's local parameters are updated on the PS in
// one visit, and the PS sends back the updated local parameters (not the
// global ones).
//
// AdaComm (adacomm.go) is the same protocol with a per-worker adaptive
// period in place of the fixed τ.
func loopEASGD(e Env, cfg *Config, rep *Replica) error {
	due := func(it int) bool { return it%cfg.Tau == 0 }
	if cfg.Algo == AdaComm {
		due = adaCommPeriod(cfg, rep)
	}
	return iterate(e, cfg, func(it int) error {
		e.Compute(false)
		rep.LocalStep(e.Grad(), 1, cfg.LR.At(it-1))
		if !due(it) {
			return nil
		}
		// Push the local parameters to the PS, which moves both copies
		// elastically, and take back the updated local parameters.
		return e.Exchange(ps.Push, it, rep.Params(), nil)
	})
}

// loopARSGD implements decentralized synchronous AllReduce SGD (Section
// IV-A, the paper's AR-SGD built on MPICH): every iteration, all workers'
// gradients are summed with an AllReduce (by default the ring: Reduce-Scatter
// followed by All-Gather, exactly the MPI algorithm) and every worker applies
// the averaged gradient locally. No parameter server exists; all replicas
// stay bit-identical because they start identical and apply identical
// updates.
func loopARSGD(e Env, cfg *Config, rep *Replica) error {
	return iterate(e, cfg, func(it int) error {
		// Elastic mode shrinks the round to its survivors; faithful mode
		// keeps every rank a member, so a dead peer stalls the collective —
		// AR-SGD's collapse under a crash.
		nodes, self := e.Members(it)
		e.Compute(cfg.WaitFreeBP)
		sum, err := e.AllReduce(it, nodes, self)
		if err != nil {
			return err
		}
		// Averaged in the same pass over the sum that steps.
		rep.LocalStep(sum, 1/float32(len(nodes)), cfg.LR.At(it-1))
		return nil
	})
}

// loopGoSGD implements Gossip SGD (Section IV-B, after Blot et al.): every
// iteration each worker trains locally, then with probability p picks a
// uniformly random peer and pushes its parameters to it *asymmetrically* —
// it does not wait for any response (the push-sum style the paper calls
// asymmetric communication). Each worker carries a mixing weight; a sender
// halves its weight and ships one half with its parameters, and a receiver
// folds the incoming pair in with a weighted average, which keeps the
// network-wide average unbiased.
//
// Receives are processed at iteration boundaries, modeling the paper's
// background communication thread. base is the worker's partner set: every
// other worker, or its neighbors in a sparse overlay.
func loopGoSGD(e Env, cfg *Config, rep *Replica, r *rng.RNG, base []int) error {
	weight := 1.0
	merge := func(vec []float32, aux float64) { weight = rep.WeightedMerge(weight, vec, aux) }
	err := iterate(e, cfg, func(it int) error {
		e.Compute(false)
		rep.LocalStep(e.Grad(), 1, cfg.LR.At(it-1))
		if err := e.FromPeers(merge); err != nil {
			return err
		}
		if !r.Bernoulli(cfg.GossipP) {
			return nil
		}
		// Draw uniformly among the partners a push can reach (under fault
		// injection a push to a dead peer would lose its weight mass).
		cands := e.Reachable(base)
		if len(cands) == 0 {
			return nil
		}
		to := cands[r.Intn(len(cands))]
		weight /= 2
		// Asymmetric: fire and forget; the sender immediately proceeds to
		// its next iteration.
		return e.ToPeer(to, it, weight, rep.Params())
	})
	if err != nil {
		return err
	}
	return e.FromPeers(merge)
}

// gossipBase returns worker w's gossip partner set: its overlay neighbors,
// or every other worker without an overlay.
func gossipBase(cfg *Config, ov *topo.Overlay, w int) []int {
	if ov != nil {
		return ov.Neighbors[w]
	}
	base := make([]int, 0, cfg.Workers-1)
	for pe := 0; pe < cfg.Workers; pe++ {
		if pe != w {
			base = append(base, pe)
		}
	}
	return base
}

// BuildOverlay returns the sparse gossip graph cfg names, drawn from the
// overlay stream DeriveStreams returns — one seed-deterministic graph every
// worker of a run agrees on — or nil for dense gossip. Call cfg.Validate
// first: it vets the graph's feasibility.
func BuildOverlay(cfg *Config, stream *rng.RNG) *topo.Overlay {
	var (
		ov  *topo.Overlay
		err error
	)
	switch cfg.Overlay {
	case "":
		return nil
	case "kregular":
		ov, err = topo.RandomRegular(cfg.Workers, cfg.OverlayDegree, stream.Uint64())
	case "smallworld":
		chords := cfg.Workers * (cfg.OverlayDegree - 2) / 2
		ov, err = topo.SmallWorld(cfg.Workers, chords, stream.Uint64())
	}
	if err != nil {
		panic(fmt.Sprintf("overlay: %v", err))
	}
	return ov
}
