package core

import (
	"fmt"

	"disttrain/internal/comm"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/topo"
)

// Env is one worker's world: what an algorithm's iteration loop needs beyond
// its own Replica. The loops in this file own protocol order only — which
// step follows which, what is sent when — and the message protocol under them
// (protocol.go), the parameter-server requests and the collectives included,
// is written once too, over the Env's wire: Send, Recv, Release and the
// Ledger's clock and booking. What a step costs, and how its bytes travel,
// sits behind the Env: the simulator's (simEnv, on a des process) models
// virtual compute time, paper-scale wire sizes, wait-free BP's pacing and the
// fault-mode timeouts; the live runtime's (internal/live's worker) owns
// sockets, codec frames, spans and checkpoints.
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
	// Ready returns once an overlapped backward pass has produced gradient
	// elements [lo, hi): wait-free BP's pacing of a collective that starts
	// before the pass is over.
	Ready(lo, hi int)

	// Reachable filters base down to the partners a push or an exchange can
	// reach right now.
	Reachable(base []int) []int

	// Go starts the worker's second thread, named name, running body on an
	// Env view of its own. hand passes the thread an iteration token, which
	// next returns in order; stop ends the stream — next then reports false —
	// and returns body's error where the runtime waits for the thread, nil
	// where the thread outlives the loop. A thread that reads no tokens runs
	// until the worker's run is torn down and must not be stopped.
	Go(name string, body func(c Env, next func() (it int, ok bool)) error) (hand func(it int), stop func() error)

	// Send ships m to node to — a worker, or from Workers on a
	// parameter-server shard — and returns its wire seconds: live, those
	// spent inside the endpoint; 0 in the simulator, which charges m's
	// paper-scale bytes and books a message's transfer as the receiver's
	// Msg.Wire instead. After an overlapped Compute, a gradient request's
	// sends may take the rest of the backward pass. Send keeps nothing of m
	// itself, only the vectors it points to: the caller may reuse m once
	// Send returns.
	Send(to int, m *Msg) (wire float64, err error)
	// Recv returns the first message of the given kind, clock and seg (any
	// may be Any), parked ones first, parking the rest; ok is false, and m
	// nil, when a Poll finds nothing or a Bounded wait gives up. m is the
	// runtime's, for the caller to read until this view's next Recv; its Vec
	// is the caller's until it hands it to Release.
	Recv(kind, clock, seg int, wait Wait) (m *Msg, ok bool, err error)
	Release(vec []float32)
	// Ledger books the steps of this view's thread, on the runtime's clock.
	Ledger() *Ledger

	// Done closes iteration it: progress, evaluation, checkpoints.
	Done(it int) error
}

// The names AD-PSGD's loop gives its second thread: one that initiates
// exchanges, or a passive one that only answers them.
const (
	commThread    = "comm"
	passiveThread = "passive"
)

// WorkerLoop runs worker rank through cfg.Iters iterations of cfg.Algo over
// e, on the replica and streams DeriveStreams and NewReplica gave that rank;
// ov is BuildOverlay's. It is the one place every algorithm is written down:
// the simulator enters it from one process per worker, the live runtime from
// one OS process (or goroutine) per worker. An error from e ends the loop and
// comes back unchanged.
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
	case ADPSGD:
		return loopADPSGD(e, cfg, rep, s.Algo, adpsgdPartners(cfg, ov, rank))
	case DPSGD:
		return loopDPSGD(e, cfg, rank, rep)
	case Hogwild:
		// Plain local SGD: setup made every worker's replica the one shared
		// model, so the steps land on it lock-free.
		return loopLocal(e, cfg, rep, nil)
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

// loopLocal is the frame of the algorithms that step their own replica on
// their own gradient every iteration, then communicate as comm says (nil:
// never): EASGD/AdaComm, GoSGD, AD-PSGD's compute thread and Hogwild.
func loopLocal(e Env, cfg *Config, rep *Replica, comm func(it int) error) error {
	return iterate(e, cfg, func(it int) error {
		e.Compute(false)
		rep.LocalStep(e.Grad(), 1, cfg.LR.At(it-1))
		if comm == nil {
			return nil
		}
		return comm(it)
	})
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
	pr := newProtocol(e, cfg, rep)
	return iterate(e, cfg, func(it int) error {
		e.Compute(overlap)
		g := e.Grad()
		var gathered float64
		if local {
			var err error
			if gathered, err = pr.gatherSum(it, group, self, g); err != nil {
				return err
			}
			if self != 0 {
				// Member: the gradient is with the leader; block for the
				// parameters it relays after the global round.
				return pr.bcast(it, group, self, 0)
			}
		}
		if err := pr.exchange(ps.Grad, it, g, nil); err != nil || !local {
			return err
		}
		return pr.bcast(it, group, self, gathered)
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
	pr := newProtocol(e, cfg, rep)
	var delta []float32 // the update, rebuilt in place every iteration
	return iterate(e, cfg, func(it int) error {
		e.Compute(cfg.WaitFreeBP)
		// The paper's parallel tasks: (i) ship the computed update to the
		// PS, (ii) apply it locally; neither waits for the other. Following
		// Ho et al., what travels is the worker's locally applied *update*
		// (same wire size as the gradient), and the local replica keeps the
		// step as taken whatever codec the update ships in. Both wires are
		// done with the vector when the request returns.
		delta = rep.LocalUpdate(e.Grad(), cfg.LR.At(it-1), delta)
		if err := pr.update(it, delta); err != nil {
			return err
		}
		if err := pr.drain(kindAck, func(m *Msg) { ack(m.Clock) }); err != nil {
			return err
		}
		if bound.Stale(it) {
			// Staleness bound exceeded: pull the aggregated global
			// parameters and block until shard 0 releases us.
			if err := pr.exchange(ps.Pull, it, nil, ack); err != nil {
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
	pr := newProtocol(e, cfg, rep)
	return loopLocal(e, cfg, rep, func(it int) error {
		if !due(it) {
			return nil
		}
		// Push the local parameters to the PS, which moves both copies
		// elastically, and take back the updated local parameters.
		return pr.exchange(ps.Push, it, rep.Params(), nil)
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
	// Validate rejects the topology-aware collectives under elastic
	// membership, so the plan's machine groups or grid hold for every round.
	pl, err := comm.Resolve(cfg.Collective, cfg.Cluster, cfg.Workers)
	if err != nil {
		return err
	}
	pr := newProtocol(e, cfg, rep)
	return iterate(e, cfg, func(it int) error {
		// Elastic mode shrinks the round to its survivors; faithful mode
		// keeps every rank a member, so a dead peer stalls the collective —
		// AR-SGD's collapse under a crash.
		nodes, self := e.Members(it)
		e.Compute(cfg.WaitFreeBP)
		sum, err := pr.allReduce(pl, it, nodes, self)
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
	merge := func(m *Msg) { weight = rep.WeightedMerge(weight, m.Vec, m.Aux) }
	pr := newProtocol(e, cfg, rep)
	err := loopLocal(e, cfg, rep, func(it int) error {
		if err := pr.drain(KindGossip, merge); err != nil {
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
		return pr.toPeer(to, it, weight, rep.Params())
	})
	if err != nil {
		return err
	}
	return pr.drain(KindGossip, merge)
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

// loopADPSGD implements Asynchronous Decentralized Parallel SGD (Section
// IV-C, after Lian et al.). As in the paper's implementation, computation and
// communication run in two threads per worker: the compute thread trains on
// (possibly mid-averaging) local parameters, exactly the lock-free behavior
// AD-PSGD allows, and hands one token per completed iteration to the
// communication thread, which does one *symmetric* exchange per token — both
// sides average their parameters — with a partner drawn from base.
//
// Workers are split into a bipartite graph: actives (even ranks) initiate,
// passives (odd ranks, base nil) only answer, until the run is torn down.
// Actives never wait on other actives, so the wait-for graph is acyclic. The
// no-bipartite ablation (Config.ADPSGDNoBipartite) lets every worker
// initiate with any partner and — like a naive implementation — answer only
// between its own exchanges; Section IV-C's scenario (A waits on B, B waits
// on C, C waits on A) then deadlocks the communication threads, the training
// threads keep computing, and Result.StuckCommThreads counts the deadlocked.
func loopADPSGD(e Env, cfg *Config, rep *Replica, r *rng.RNG, base []int) error {
	if base == nil {
		e.Go(passiveThread, func(c Env, _ func() (int, bool)) error { return newProtocol(c, cfg, rep).answer(true) })
		return loopLocal(e, cfg, rep, nil)
	}
	hand, stop := e.Go(commThread, func(c Env, next func() (int, bool)) error {
		pr := newProtocol(c, cfg, rep)
		for it, ok := next(); ok; it, ok = next() {
			if cfg.ADPSGDNoBipartite {
				if err := pr.answer(false); err != nil {
					return err
				}
			}
			// Under fault injection the draw avoids partners that are dead
			// or partitioned away — AD-PSGD's natural elasticity.
			cands := c.Reachable(base)
			if len(cands) == 0 {
				continue
			}
			if err := pr.swap(cands[r.Intn(len(cands))], it, rep.Params()); err != nil {
				return err
			}
		}
		return nil
	})
	err := loopLocal(e, cfg, rep, func(it int) error {
		hand(it)
		return nil
	})
	if serr := stop(); err == nil {
		err = serr
	}
	return err
}

// adpsgdPartners returns the peers rank draws its exchange partners from, or
// nil for a passive rank. Bipartite, an active draws from the odd ranks — its
// odd overlay neighbours under a sparse overlay, or all odd ranks when the
// overlay gave it none. The no-bipartite ablation draws from every other
// rank, or the rank's overlay neighbours.
func adpsgdPartners(cfg *Config, ov *topo.Overlay, rank int) []int {
	if cfg.ADPSGDNoBipartite {
		return gossipBase(cfg, ov, rank)
	}
	if rank%2 == 1 {
		return nil
	}
	var odd []int
	if ov != nil {
		for _, pe := range ov.Neighbors[rank] {
			if pe%2 == 1 {
				odd = append(odd, pe)
			}
		}
	}
	if len(odd) == 0 {
		for pe := 1; pe < cfg.Workers; pe += 2 {
			odd = append(odd, pe)
		}
	}
	return odd
}

// loopDPSGD implements synchronous D-PSGD's ring mix (see DPSGD): every
// iteration a worker computes the gradient of its pre-mix parameters,
// exchanges parameters with both ring neighbours, mixes
// x ← (x + x_left + x_right)/3 — folded in that order, whatever order the
// vectors arrive in — and steps on its gradient.
func loopDPSGD(e Env, cfg *Config, rank int, rep *Replica) error {
	W := cfg.Workers
	ring := []int{(rank - 1 + W) % W, (rank + 1) % W}
	pr := newProtocol(e, cfg, rep)
	return iterate(e, cfg, func(it int) error {
		e.Compute(false)
		if W > 1 {
			nbs, err := pr.neighbors(it, ring, rep.Params())
			if err != nil {
				return err
			}
			rep.Mix(nbs)
			for _, v := range nbs {
				e.Release(v)
			}
		}
		rep.LocalStep(e.Grad(), 1, cfg.LR.At(it-1))
		return nil
	})
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
