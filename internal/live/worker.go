package live

import (
	"fmt"
	"sync/atomic"

	"disttrain/internal/comm"
	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/topo"
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
	// streams and overlay are the simulator's derivations for this rank: the
	// algorithm draws (gossip targets, AD-PSGD partners) and GoSGD's partner
	// graph.
	streams core.Streams
	overlay *topo.Overlay

	iters int // completed iterations

	// What the core.Env methods carry from one call of an iteration to the
	// next: full is the fixed cohort 0..W-1 and plan AR-SGD's collective
	// (the simulator's for the same config), g the gradient of the pass in
	// progress, merge GoSGD's fold of an arriving push.
	full  []int
	plan  comm.Plan
	g     []float32
	merge func(vec []float32, aux float64)

	// codec is the gradient wire codec (0 = dense); saved accumulates the
	// wire bytes quantization saved versus dense float32 frames, exported
	// per rank as compressed_bytes_saved through Metrics.
	codec xport.QuantCodec
	saved atomic.Int64
	// enc is the codec's reusable buffer: the encoded payload of this
	// step's gradient, whose int8 codes are quantized straight into it.
	enc []byte

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
	ws, overlayStream := core.DeriveStreams(cfg.Seed, cfg.Workers)
	rep := core.NewReplica(rank, cfg, ws[rank])
	rep.Guard()
	w := &worker{
		cfg:       cfg,
		rank:      rank,
		srv:       serverRank(cfg),
		ep:        ep,
		mb:        newMailbox(ep),
		rep:       rep,
		streams:   ws[rank],
		overlay:   core.BuildOverlay(cfg, overlayStream),
		full:      make([]int, cfg.Workers),
		codec:     quantCodec(cfg),
		ch:        newChaos(cfg),
		startIter: 1,
	}
	for i := range w.full {
		w.full[i] = i
	}
	// core.Validate resolved the same name, so this cannot fail.
	w.plan, _ = comm.Resolve(cfg.Collective, cfg.Cluster, cfg.Workers)
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

// note records the completion of iteration it (see Done); AD-PSGD's compute
// loops call it directly.
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
	if w.cfg.Algo == core.ADPSGD {
		err = w.runADPSGD()
	} else {
		err = core.WorkerLoop(w, w.cfg, w.rank, w.rep, w.streams, w.overlay)
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
			w.merge(f.Vec, f.Aux)
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

// The methods below make worker the live runtime's core.Env: everything that
// is a *wire* — frames and their codec, spans, the mailbox's matching and
// recycling, checkpoints — under the loops of core/loops.go, which own the
// protocol order. Received vectors are released to xport's recycler as soon as
// the replica has taken them in.

// Gate is the per-round chaos check: a deathErr when this worker's schedule
// says iteration it is not run (the life driver restarts it), and otherwise a
// refresh of the connections to peers resuming this round. An incarnation
// restored from a checkpoint skips ahead to where its schedule resumes.
func (w *worker) Gate(it int) (int, bool, error) {
	if it < w.startIter {
		it = w.startIter
	}
	if w.ch != nil {
		if !w.ch.aliveAt(w.rank, it) {
			return it, false, deathErr{it: it}
		}
		dropResumedPeers(w.ep, w.ch, w.rank, it)
	}
	return it, true, nil
}

// Members is the round's alive membership — the function the simulator's
// elastic mode evaluates — so a ring is rebuilt every round from the shared
// schedule, no view exchange needed.
func (w *worker) Members(it int) ([]int, int) {
	if w.ch == nil {
		return w.full, w.rank
	}
	return w.ch.inj.AliveNodes(it, w.rank)
}

// Compute runs the pass under a compute span; a wall-clock worker has no
// backward time to overlap with.
func (w *worker) Compute(bool) {
	w.g = w.gradSpan()
	w.draws++
}

// Grad is the model's own gradient store until the next pass overwrites it,
// and Send never retains a frame, so collectives reduce it where backward
// wrote it and the step reads the sum from there.
func (w *worker) Grad() []float32 { return w.g }

// link is this rank's comm.Link for one collective call of the given kind
// over vec.
func (w *worker) link(kind uint16, it int, nodes []int, self int, vec []float32) *arLink {
	return &arLink{mb: w.mb, kind: kind, nodes: nodes, self: self, clock: int32(it), vec: vec}
}

func (w *worker) AllReduce(it int, nodes []int, self int) ([]float32, error) {
	l := w.link(kindAllReduce, it, nodes, self, w.g)
	l.q = w.arQuantize(w.g)
	sp := w.span("allreduce", "comm")
	defer sp.End()
	return w.g, w.plan.Run(l, len(nodes), self, len(w.g))
}

// GatherSum ships a member's gradient to its machine leader dense — the
// codec applies once, to the sum the leader pushes, as in the simulator.
func (w *worker) GatherSum(it int, group []int, self int, vec []float32) error {
	sp := w.span("local-gather", "comm")
	defer sp.End()
	l := w.link(kindLocalGather, it, group, self, vec)
	return comm.Plan{Op: comm.OpGather}.Run(l, len(group), self, len(vec))
}

func (w *worker) Bcast(it int, group []int, self int, params []float32) error {
	sp := w.span("local-bcast", "comm")
	defer sp.End()
	if self != 0 {
		// The gradient store is dead once the gather has shipped it: the
		// leader's parameters land there on their way into the replica.
		params = w.g
	}
	l := w.link(kindLocalBcast, it, group, self, params)
	if err := (comm.Plan{Op: comm.OpBroadcast}).Run(l, len(group), self, len(params)); err != nil || self == 0 {
		return err
	}
	w.rep.SetParams(params)
	return nil
}

// Exchange sends the request, blocks for the reply that echoes its clock and
// installs the parameters it carries. SSP acks that overtake the reply are
// stashed for the next Acks.
func (w *worker) Exchange(kind ps.Kind, it int, vec []float32, _ func(int)) error {
	f := &xport.Frame{Kind: uint16(kind), From: int32(w.rank), Clock: int32(it)}
	span, reply := "ps-exchange", kindParams
	switch kind {
	case ps.Grad:
		w.encodeGrad(vec, f)
	case ps.Pull:
		span = "ssp-sync"
	case ps.Push:
		span, reply, f.Vec = "easgd-sync", kindEASGDReply, vec
	}
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

func (w *worker) Update(it int, vec []float32) error {
	f := &xport.Frame{Kind: kindGrad, From: int32(w.rank), Clock: int32(it)}
	w.encodeGrad(vec, f)
	return w.ep.Send(w.srv, f)
}

// arrived hands fold every frame that has already come in, which must all be
// of the given kind.
func (w *worker) arrived(kind uint16, fold func(*xport.Frame)) error {
	for {
		f, ok, err := w.mb.poll()
		if err != nil || !ok {
			return err
		}
		if f.Kind != kind {
			return fmt.Errorf("unexpected kind %d among the arrived frames, want %d", f.Kind, kind)
		}
		fold(&f)
		f.Release()
	}
}

func (w *worker) Acks(ack func(int)) error {
	return w.arrived(kindAck, func(f *xport.Frame) { ack(int(f.Clock)) })
}

// FromPeers keeps merge: the tail between DONE and BYE folds late pushes
// into the same mixing weight.
func (w *worker) FromPeers(merge func([]float32, float64)) error {
	w.merge = merge
	return w.arrived(kindGossip, func(f *xport.Frame) { merge(f.Vec, f.Aux) })
}

// Reachable: live admits no crash schedule for gossip, and a partition
// stalls a push rather than losing it.
func (w *worker) Reachable(base []int) []int { return base }

func (w *worker) ToPeer(to, it int, aux float64, vec []float32) error {
	sp := w.span("gossip-push", "comm")
	defer sp.End()
	return w.ep.Send(to, &xport.Frame{Kind: kindGossip, From: int32(w.rank),
		Clock: int32(it), Aux: aux, Vec: vec})
}

// Done records the completion of iteration it: the worker's own counter, the
// progress cell the heartbeat goroutine publishes to the coordinator, the
// optional Options.progress observer, and — for the algorithms that admit a
// crash schedule — the checkpoint a restarted incarnation resumes from.
func (w *worker) Done(it int) error {
	w.note(it)
	if !w.cfg.Algo.Synchronous() || !w.ckpt.Due(it) {
		return nil
	}
	sp := w.span("checkpoint", "ckpt")
	defer sp.End()
	return w.rep.SaveState(w.ckpt.Path(w.rank), it, w.draws)
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
	r := w.streams.Algo
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
