package live

import (
	"fmt"
	"sync/atomic"

	"disttrain/internal/comm"
	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// Trace track conventions for the live runtime: workers record on pid 0
// with tid = rank, AD-PSGD communication threads on pid 0 with tid =
// adpsgdCommTid+rank (their exchanges overlap the compute track), and the
// coordinator on pid 1. The simulator uses pid = machine, so the two time
// sources stay distinguishable in one viewer.
const (
	workerPid     = 0
	coordPid      = 1
	adpsgdCommTid = 1000
)

// meshSize is the number of xport ranks a run needs: one per worker, plus
// one extra rank hosting the parameter server for centralized algorithms.
func meshSize(cfg *core.Config) int {
	if cfg.Algo.Centralized() {
		return cfg.Workers + 1
	}
	return cfg.Workers
}

// serverRank is the PS's mesh rank (the last one), or -1 for
// decentralized algorithms.
func serverRank(cfg *core.Config) int {
	if cfg.Algo.Centralized() {
		return cfg.Workers
	}
	return -1
}

// worker drives one replica through its algorithm's live protocol. The
// main loop owns the mailbox; only AD-PSGD adds a second goroutine (the
// communication thread of Lian et al.), which then becomes the sole
// endpoint owner while the compute loop stays local.
type worker struct {
	cfg  *core.Config
	rank int
	srv  int // mesh rank of the PS; -1 when decentralized
	ep   xport.Endpoint
	mb   *mailbox
	rep  *core.Replica
	algo *rng.RNG

	iters  int     // completed iterations
	weight float64 // GoSGD mixing weight

	// codec is the gradient wire codec (0 = dense); saved accumulates the
	// wire bytes quantization saved versus dense float32 frames, exported
	// per rank as compressed_bytes_saved through Metrics.
	codec xport.QuantCodec
	saved atomic.Int64
	// qbuf and enc are the codec's reusable buffers: the int8 codes of this
	// step's gradient and the encoded payload a PS push ships them in.
	qbuf []int8
	enc  []byte

	// Chaos state: ch is the shared crash-membership function (nil in a
	// crash-free run), startIter is where this incarnation's loop begins
	// (>1 after a checkpoint restore), draws counts sampler draws for the
	// checkpoint, prog publishes progress to the heartbeat goroutine, and
	// ckpt is the checkpoint cadence.
	ch        *chaos
	startIter int
	draws     int
	prog      atomic.Int64
	ckpt      nn.Cadence

	// onProgress, when non-nil, observes every completed iteration
	// (Options.progress).
	onProgress func(rank, iter int, loss float64)

	// tr records wall-clock spans (nil when tracing is off; every
	// trace call is nil-safe).
	tr *trace.Tracer
}

func newWorker(cfg *core.Config, rank int, ep xport.Endpoint, o *Options) *worker {
	// The simulator's own derivation and constructor: identical streams and
	// an identically built replica are what make the numerics agree. Only
	// the mutex is live-specific — AD-PSGD's communication goroutine shares
	// the replica with the compute loop.
	ws, _ := core.DeriveStreams(cfg.Seed, cfg.Workers)
	rep := core.NewReplica(rank, cfg, ws[rank])
	rep.Guard()
	w := &worker{
		cfg:       cfg,
		rank:      rank,
		srv:       serverRank(cfg),
		ep:        ep,
		mb:        newMailbox(ep),
		rep:       rep,
		algo:      ws[rank].Algo,
		weight:    1,
		codec:     quantCodec(cfg),
		ch:        newChaos(cfg),
		startIter: 1,
	}
	if o != nil {
		w.ckpt = o.ckpt
		w.onProgress = o.progress
		w.tr = o.tracer
		if o.metrics != nil {
			o.metrics.registerProgress(rank, w.prog.Load)
			if st, ok := ep.(statser); ok {
				o.metrics.registerStats(rank, st.Stats)
			}
			if w.codec != 0 {
				o.metrics.registerSaved(rank, w.saved.Load)
			}
		}
	}
	return w
}

// span opens a wall-clock span on this worker's trace track; with tracing
// off it returns a no-op span.
func (w *worker) span(name, cat string) *trace.WallSpan {
	return w.tr.StartSpan(name, cat, workerPid, w.rank)
}

// note records the completion of iteration it: the worker's own counter,
// the progress cell the heartbeat goroutine publishes to the coordinator,
// and the optional Options.progress observer. Every algorithm loop calls it
// exactly once per completed iteration.
func (w *worker) note(it int) {
	w.iters = it
	w.prog.Store(int64(it))
	if w.onProgress != nil {
		loss, _ := w.rep.Loss()
		w.onProgress(w.rank, it, loss)
	}
}

// deathErr signals a scheduled crash: the worker reached an iteration its
// crash schedule says it does not run. The life driver catches it, tears
// the process state down, and restarts after the scheduled delay.
type deathErr struct{ it int }

func (e deathErr) Error() string {
	return fmt.Sprintf("scheduled death at iteration %d", e.it)
}

// peerDropper is the optional transport capability chaos needs: discard a
// cached connection so the next send redials. TCPNet implements it; the
// channel transport (which cannot lose bytes) does not and needs nothing.
type peerDropper interface{ DropPeer(int) }

// dropResumedPeers discards self's cached connections to every worker that
// comes back from a dead window exactly at iteration it. The old socket is
// half-closed on the peer's side; a write on it could be silently lost, so
// the first post-restart exchange must start on a fresh dial.
func dropResumedPeers(ep xport.Endpoint, ch *chaos, self, it int) {
	pd, ok := ep.(peerDropper)
	if ch == nil || !ok {
		return
	}
	for w := 0; w < ch.cfg.Workers; w++ {
		if w != self && ch.resumedAt(w, it) {
			pd.DropPeer(w)
		}
	}
}

// gate is the per-round chaos check for the synchronous loops: it returns a
// deathErr when this worker's schedule says iteration it is not run, and
// otherwise refreshes connections to peers resuming this round.
func (w *worker) gate(it int) error {
	if w.ch == nil {
		return nil
	}
	if !w.ch.aliveAt(w.rank, it) {
		return deathErr{it: it}
	}
	dropResumedPeers(w.ep, w.ch, w.rank, it)
	return nil
}

// maybeCheckpoint writes this worker's training state if the cadence says
// iteration it is a checkpoint boundary.
func (w *worker) maybeCheckpoint(it int) error {
	if !w.ckpt.Due(it) {
		return nil
	}
	sp := w.span("checkpoint", "ckpt")
	defer sp.End()
	return w.rep.SaveState(w.ckpt.Path(w.rank), it, w.draws)
}

// gradSpan wraps one forward/backward pass in a compute span.
func (w *worker) gradSpan() []float32 {
	sp := w.span("compute", "compute")
	g := w.rep.ComputeGrad()
	sp.End()
	return g
}

// run executes the full training loop for the configured algorithm and
// returns once this worker's iterations are complete. For centralized
// algorithms it then tells the PS so the server loop can retire.
func (w *worker) run() error {
	var err error
	switch w.cfg.Algo {
	case core.BSP, core.ASP:
		err = w.runGradPS()
	case core.SSP:
		err = w.runSSP()
	case core.EASGD:
		err = w.runEASGD()
	case core.ARSGD:
		err = w.runARSGD()
	case core.GoSGD:
		err = w.runGoSGD()
	case core.ADPSGD:
		err = w.runADPSGD()
	default:
		err = fmt.Errorf("live: no driver for %s", w.cfg.Algo)
	}
	if err != nil {
		return fmt.Errorf("live: worker %d (%s): %w", w.rank, w.cfg.Algo, err)
	}
	if w.srv >= 0 {
		if err := w.ep.Send(w.srv, &xport.Frame{Kind: kindBye, From: int32(w.rank)}); err != nil {
			return fmt.Errorf("live: worker %d bye: %w", w.rank, err)
		}
	}
	return nil
}

// tail keeps absorbing asynchronous traffic between the worker's DONE and
// the coordinator's BYE: GoSGD merges late gossip pushes (the simulator's
// final drain), everything else ignores strays. AD-PSGD's passive serve
// goroutine keeps running on its own until shutdown, so it needs nothing
// here. stop closes when the BYE arrived.
func (w *worker) tail(stop <-chan struct{}) error {
	if w.cfg.Algo != core.GoSGD {
		<-stop
		return nil
	}
	for stopped := false; ; {
		f, ok, err := w.mb.poll()
		if err != nil {
			return err
		}
		if ok && f.Kind == kindGossip {
			w.weight = w.rep.WeightedMerge(w.weight, f.Vec, f.Aux)
			f.Release()
		}
		// After the BYE keep sweeping until a poll comes back empty, so a
		// gossip that raced it and is already buffered (or in flight) still
		// lands.
		if stopped && !ok {
			return nil
		}
		select {
		case <-stop:
			stopped = true
		default:
		}
	}
}

// runGradPS is BSP's and ASP's worker loop, which are the same exchange —
// push the gradient, wait for the parameters the PS answers with — against
// different shard protocols. Chaos membership and checkpoints are BSP's:
// live.Validate admits crash schedules for BSP only (startIter stays 1 and
// the gate is a no-op without one), and an ASP worker writes no checkpoint.
func (w *worker) runGradPS() error {
	cfg := w.cfg
	for it := w.startIter; it <= cfg.Iters; it++ {
		if err := w.gate(it); err != nil {
			return err
		}
		g := w.gradSpan()
		w.draws++
		gf := &xport.Frame{Kind: kindGrad, From: int32(w.rank), Clock: int32(it)}
		w.encodeGrad(g, gf)
		if err := w.exchange("ps-exchange", gf, kindParams); err != nil {
			return err
		}
		w.note(it)
		if cfg.Algo == core.BSP {
			if err := w.maybeCheckpoint(it); err != nil {
				return err
			}
		}
	}
	return nil
}

// exchange is the worker's half of a PS round trip: send f, block for the
// reply of the given kind that echoes f's clock, and install the parameters
// it carries. Whatever else arrives meanwhile (SSP acks) is stashed for the
// next poll.
func (w *worker) exchange(span string, f *xport.Frame, reply uint16) error {
	sp := w.span(span, "comm")
	if err := w.ep.Send(w.srv, f); err != nil {
		return err
	}
	r, err := w.mb.recvMatch(reply, f.Clock, 0, recvTimeout)
	if err != nil {
		return err
	}
	sp.End()
	w.rep.SetParams(r.Vec)
	r.Release()
	return nil
}

func (w *worker) runSSP() error {
	cfg := w.cfg
	bound := ps.Bound{S: cfg.Staleness}
	for it := 1; it <= cfg.Iters; it++ {
		g := w.gradSpan()
		// Petuum-style SSP: apply locally, ship the resulting *update*.
		before := w.rep.Params()
		w.rep.LocalStep(g, 1, cfg.LR.At(it-1))
		delta := w.rep.Params()
		for i := range delta {
			delta[i] -= before[i]
		}
		// The shipped delta goes through the codec (the simulator's
		// sendGrads quantizes SSP updates too); the local replica keeps
		// the unquantized step, exactly like the simulator's worker.
		df := &xport.Frame{Kind: kindGrad, From: int32(w.rank), Clock: int32(it)}
		w.encodeGrad(delta, df)
		if err := w.ep.Send(w.srv, df); err != nil {
			return err
		}
		// Fold any acks that have piled up.
		for {
			f, ok, err := w.mb.poll()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if f.Kind != kindAck {
				return fmt.Errorf("ssp drain: unexpected kind %d", f.Kind)
			}
			bound.Ack(int(f.Clock))
		}
		if bound.Stale(it) {
			// Staleness bound exceeded: pull the global parameters and block
			// until the PS's clock service releases us.
			pull := &xport.Frame{Kind: kindPull, From: int32(w.rank), Clock: int32(it)}
			if err := w.exchange("ssp-sync", pull, kindParams); err != nil {
				return err
			}
			bound.Refreshed(it)
		}
		w.note(it)
	}
	return nil
}

func (w *worker) runEASGD() error {
	cfg := w.cfg
	for it := 1; it <= cfg.Iters; it++ {
		g := w.gradSpan()
		w.rep.LocalStep(g, 1, cfg.LR.At(it-1))
		if it%cfg.Tau == 0 {
			push := &xport.Frame{Kind: kindEASGDPush, From: int32(w.rank), Clock: int32(it), Vec: w.rep.Params()}
			if err := w.exchange("easgd-sync", push, kindEASGDReply); err != nil {
				return err
			}
		}
		w.note(it)
	}
	return nil
}

func (w *worker) runARSGD() error {
	cfg := w.cfg
	// The simulator's plan for the same config: core.Validate admits the
	// topology-aware collectives only with fixed membership, so their groups
	// and grid always index the full world below.
	plan, err := comm.Resolve(cfg.Collective, cfg.Cluster, cfg.Workers)
	if err != nil {
		return err
	}
	full := make([]int, cfg.Workers)
	for i := range full {
		full[i] = i
	}
	for it := w.startIter; it <= cfg.Iters; it++ {
		if err := w.gate(it); err != nil {
			return err
		}
		// The round's group is the alive membership — the simulator's
		// elastic aliveNodes — so the ring is rebuilt every round from the
		// shared membership function, no view exchange needed.
		nodes, self := full, w.rank
		if w.ch != nil {
			nodes, self = w.ch.aliveNodes(it, w.rank)
		}
		inv := 1 / float32(len(nodes))
		// The gradient is the model's own store until the next pass
		// overwrites it, and Send never retains a frame, so the collective
		// reduces it where backward wrote it and the step reads the sum from
		// there, averaging as it goes.
		agg := w.gradSpan()
		w.draws++
		qc := w.arQuantize(agg)
		sp := w.span("allreduce", "comm")
		l := &arLink{mb: w.mb, nodes: nodes, self: self, clock: int32(it), vec: agg, q: qc}
		if err := plan.Run(l, len(nodes), self, len(agg)); err != nil {
			return err
		}
		sp.End()
		w.rep.LocalStep(agg, inv, cfg.LR.At(it-1))
		w.note(it)
		if err := w.maybeCheckpoint(it); err != nil {
			return err
		}
	}
	return nil
}

func (w *worker) runGoSGD() error {
	cfg := w.cfg
	W := cfg.Workers
	r := w.algo
	for it := 1; it <= cfg.Iters; it++ {
		g := w.gradSpan()
		w.rep.LocalStep(g, 1, cfg.LR.At(it-1))
		for {
			f, ok, err := w.mb.poll()
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			if f.Kind != kindGossip {
				return fmt.Errorf("gosgd worker: unexpected kind %d", f.Kind)
			}
			w.weight = w.rep.WeightedMerge(w.weight, f.Vec, f.Aux)
			f.Release()
		}
		if r.Bernoulli(cfg.GossipP) && W > 1 {
			t := r.Intn(W - 1)
			if t >= w.rank {
				t++
			}
			half := w.weight / 2
			w.weight = half
			// Asymmetric push: fire and forget.
			sp := w.span("gossip-push", "comm")
			if err := w.ep.Send(t, &xport.Frame{Kind: kindGossip, From: int32(w.rank),
				Clock: int32(it), Aux: half, Vec: w.rep.Params()}); err != nil {
				return err
			}
			sp.End()
		}
		w.note(it)
	}
	return nil
}

// runADPSGD mirrors the simulator's two-thread structure: the compute loop
// trains continuously while a communication goroutine — which owns the
// mailbox for the whole run — either initiates one symmetric exchange per
// completed iteration (active, even ranks) or serves incoming exchange
// requests until shutdown (passive, odd ranks).
func (w *worker) runADPSGD() error {
	cfg := w.cfg
	W := cfg.Workers
	var passive []int
	for i := 1; i < W; i += 2 {
		passive = append(passive, i)
	}
	active := w.rank%2 == 0 && len(passive) > 0

	if !active {
		// Passive: the serve goroutine answers exchanges for the rest of the
		// process's life (it exits when the endpoint closes at shutdown);
		// the compute loop below trains locally, sharing the replica through
		// its mutex.
		go w.adpsgdServe()
		for it := 1; it <= cfg.Iters; it++ {
			g := w.gradSpan()
			w.rep.LocalStep(g, 1, cfg.LR.At(it-1))
			w.note(it)
		}
		return nil
	}

	tokens := make(chan int, cfg.Iters+1)
	commErr := make(chan error, 1)
	go func() {
		commErr <- w.adpsgdActive(tokens, passive)
	}()
	for it := 1; it <= cfg.Iters; it++ {
		g := w.gradSpan()
		w.rep.LocalStep(g, 1, cfg.LR.At(it-1))
		tokens <- it
		w.note(it)
	}
	tokens <- -1
	return <-commErr
}

// adpsgdActive is an active worker's communication thread: one symmetric
// exchange with a random passive peer per completed compute iteration.
func (w *worker) adpsgdActive(tokens <-chan int, passive []int) error {
	r := w.algo
	for it := range tokens {
		if it < 0 {
			return nil
		}
		peer := passive[r.Intn(len(passive))]
		// The communication thread overlaps the compute track, so its
		// exchanges record on a separate tid.
		sp := w.tr.StartSpan("adpsgd-exchange", "comm", workerPid, adpsgdCommTid+w.rank)
		if err := w.ep.Send(peer, &xport.Frame{Kind: kindExchangeReq, From: int32(w.rank),
			Clock: int32(it), Vec: w.rep.Params()}); err != nil {
			return err
		}
		f, err := w.mb.recvMatch(kindExchangeRep, int32(it), 0, recvTimeout)
		if err != nil {
			return err
		}
		sp.End()
		w.rep.Average(f.Vec)
		f.Release()
	}
	return nil
}

// adpsgdServe is a passive worker's communication thread: reply to every
// exchange request with the current parameters, then fold the active's in.
// It exits when the endpoint closes.
func (w *worker) adpsgdServe() {
	for {
		f, err := w.mb.recv(recvTimeout)
		if err != nil {
			return // closed at shutdown (or wedged — shutdown will follow)
		}
		if f.Kind != kindExchangeReq {
			continue
		}
		if err := w.ep.Send(int(f.From), &xport.Frame{Kind: kindExchangeRep, From: int32(w.rank),
			Clock: f.Clock, Vec: w.rep.Params()}); err != nil {
			return
		}
		w.rep.Average(f.Vec)
		f.Release()
	}
}
