package live

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/metrics"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/topo"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// Trace track conventions for the live runtime: workers record on pid 0
// with tid = rank, a worker's second thread (AD-PSGD's communication thread)
// on pid 0 with tid = core.ThreadTid+rank (its exchanges overlap the compute
// track), and the coordinator on pid 1. The simulator uses pid = machine, so
// the two time sources stay distinguishable in one viewer.
const (
	workerPid = 0
	coordPid  = 1
)

// serverRank is the PS's mesh rank (the last one), or -1 for
// decentralized algorithms.
func serverRank(cfg *core.Config) int {
	if cfg.Algo.Centralized() {
		return cfg.Workers
	}
	return -1
}

// meshSize is the number of xport ranks a run needs: one per worker, plus
// one extra rank hosting the parameter server for centralized algorithms.
func meshSize(cfg *core.Config) int { return max(cfg.Workers, serverRank(cfg)+1) }

// worker drives one replica through its algorithm's live protocol. The
// main loop owns the mailbox; only AD-PSGD adds a second goroutine (the
// communication thread of Lian et al., started by Go), which then becomes
// the sole endpoint owner while the compute loop stays local.
type worker struct {
	cfg  *core.Config
	rank int
	srv  int // mesh rank of the PS; -1 when decentralized
	ep   xport.Endpoint
	mb   *core.Mailbox
	// msgs is the free list of the messages Recv hands out; held is the
	// last one, freed at the next call.
	msgs core.Msgs
	held *core.Msg
	rep  *core.Replica
	// streams and overlay are the simulator's derivations for this rank: the
	// algorithm draws (gossip targets, AD-PSGD partners) and GoSGD's partner
	// graph.
	streams core.Streams
	overlay *topo.Overlay

	iters int // iterations this incarnation ran

	// What the core.Env methods carry from one call of an iteration to the
	// next: full is the fixed cohort 0..W-1, g the gradient of the pass in
	// progress.
	full []int
	g    []float32

	// codec is the gradient wire codec (0 = dense); saved accumulates the
	// wire bytes quantization saved versus dense float32 frames, exported
	// per rank as compressed_bytes_saved through Metrics.
	codec xport.QuantCodec
	saved atomic.Int64
	// enc is the int8 payload of a whole-vector contribution, codes its code
	// region, where the replica writes its codes; chunk is an AllReduce
	// chunk's (codes copied, so that those still to be sent stay put) or an
	// f16 payload.
	enc, chunk []byte
	codes      []int8
	// store is the parameter store a PS request posts for its reply (nil:
	// replies are lent), awaiting the kind of the reply posted for (0: none).
	store    []float32
	awaiting uint16

	// Chaos state: ch is the shared crash-membership function (nil in a
	// crash-free run), faults the rank's view of the fault schedule,
	// startIter is where this incarnation's loop begins (>1 after a
	// checkpoint restore), draws counts sampler draws for the checkpoint,
	// prog publishes progress to a metrics scrape, and ckpt is the
	// checkpoint cadence.
	ch        *chaos
	faults    *rankFaults // nil without a fault schedule
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
	// l books the core.Env steps in wall seconds, on tr's clock; threads
	// counts the second threads Go started.
	l       *core.Ledger
	threads sync.WaitGroup
}

// newWorker builds rank's worker over ep, its replica around the parameters
// the run's initial draw hands it (o.init).
func newWorker(cfg *core.Config, rank int, ep xport.Endpoint, o *Options) *worker {
	// The simulator's own derivation and constructor: identical streams and
	// an identically built replica are what make the numerics agree. Only
	// the mutex is live-specific — AD-PSGD's communication goroutine shares
	// the replica with the compute loop.
	ws, overlayStream := core.DeriveStreams(cfg.Seed, cfg.Workers)
	rep := core.NewReplica(rank, cfg, ws[rank], o.init.take())
	rep.Guard()
	w := &worker{
		cfg:        cfg,
		rank:       rank,
		srv:        serverRank(cfg),
		ep:         ep,
		mb:         new(core.Mailbox),
		rep:        rep,
		streams:    ws[rank],
		overlay:    core.BuildOverlay(cfg, overlayStream),
		full:       make([]int, cfg.Workers),
		codec:      quantCodec(cfg),
		ch:         newChaos(cfg),
		startIter:  1,
		ckpt:       o.ckpt,
		onProgress: o.progress,
		tr:         o.tracer,
	}
	for i := range w.full {
		w.full[i] = i
	}
	// Pushes leave where the parameters lie, but where a second thread writes
	// them (AD-PSGD) or the push is answered into them (EASGD: a socket write
	// orders the two for the kernel, not for the race detector).
	if cfg.Algo == core.GoSGD || cfg.Algo == core.DPSGD {
		rep.ShareParams()
	}
	// A restarted incarnation re-runs rounds its dead predecessor may have
	// requested, so a reply to the dead one could land in its store at a
	// round it has not reached: under a crash schedule replies are lent.
	if cfg.Algo.Centralized() && w.ch == nil {
		w.store = rep.Weights()
	}
	if o.metrics != nil {
		o.metrics.registerProgress(rank, w.prog.Load)
		o.metrics.registerStats(rank, ep.Stats)
		if w.codec != 0 {
			o.metrics.registerSaved(rank, w.saved.Load)
		}
	}
	w.l = core.NewLedger(new(metrics.Breakdown), w.tr, w.tr.Now, workerPid, rank)
	return w
}

// span opens a wall-clock span on this worker's trace track; with tracing
// off it returns a no-op span.
func (w *worker) span(name, cat string) *trace.WallSpan {
	return w.tr.StartSpan(name, cat, workerPid, w.rank)
}

// deathErr signals a scheduled crash: the worker reached an iteration its
// crash schedule says it does not run. The life driver catches it, tears
// the process state down, and restarts after the scheduled delay.
type deathErr struct{ it int }

func (e deathErr) Error() string {
	return fmt.Sprintf("scheduled death at iteration %d", e.it)
}

// run executes the full training loop for the configured algorithm and
// returns once this worker's iterations are complete. It then retires the
// replica's gradient store and velocity to xport's lender, where the
// coordinator's decoder finds them for the DONE reports, and, for
// centralized algorithms, tells the PS so the server loop can retire. An
// int8 worker's whole-vector payload is laid out first, as training starts,
// its code region the store the replica writes its codes into.
func (w *worker) run() error {
	if w.codec == xport.QuantInt8 {
		w.enc, w.codes = xport.Int8Payload(nil, len(w.rep.Weights()))
		w.rep.SetCodes(w.codes)
	}
	if err := core.WorkerLoop(w, w.cfg, w.rank, w.rep, w.streams, w.overlay); err != nil {
		return fmt.Errorf("live: worker %d (%s): %w", w.rank, w.cfg.Algo, err)
	}
	grads, velocity := w.rep.Retire()
	w.g = nil
	w.Release(grads)
	w.Release(velocity)
	if w.srv >= 0 {
		if err := w.ep.Send(w.srv, &xport.Frame{Kind: kindBye, From: int32(w.rank)}); err != nil {
			return fmt.Errorf("live: worker %d bye: %w", w.rank, err)
		}
	}
	return nil
}

// tail keeps absorbing asynchronous traffic between the worker's DONE and
// the coordinator's BYE, so that a slower peer's gossip push never waits on a
// full inbox: GoSGD drops late pushes — the report is already taken —
// everything else ignores strays. An AD-PSGD passive's second thread keeps
// answering on its own until shutdown, so it needs nothing here. stop closes
// when the BYE arrived.
func (w *worker) tail(stop <-chan struct{}) error {
	if w.cfg.Algo != core.GoSGD {
		<-stop
		return nil
	}
	for stopped := false; ; {
		select {
		case <-stop:
			stopped = true
		default:
		}
		// After the BYE keep sweeping until a poll comes back empty, so a
		// push that raced it and is already buffered is drained too.
		m, ok, err := w.Recv(core.Any, core.Any, core.Any, core.Poll)
		if err != nil || stopped && !ok {
			return err
		}
		if ok {
			w.Release(m.Vec)
		}
	}
}

// report is the worker's final account, on either transport: completed
// iterations, the training-loss EWMA, the final parameters and breakdown.
// Once its loop has returned nothing writes the replica any more, so the
// report carries the parameter store where it lies — but on an AD-PSGD
// rank, whose passive thread answers (and averages) until teardown: that
// report takes a snapshot.
func (w *worker) report() doneInfo {
	loss, lossInit := w.rep.Loss()
	params := w.rep.Weights()
	if w.cfg.Algo == core.ADPSGD {
		params = w.rep.Params()
	}
	return doneInfo{iters: w.iters, loss: loss, lossInit: lossInit, params: params,
		stats: doneStats{Breakdown: w.l.Breakdown()}}
}

// The methods below make worker the live runtime's core.Env: everything that
// is a *wire* — frames and their codec, the endpoint under core.Mailbox,
// recycling, checkpoints — under the loops of core/loops.go and the message
// protocol of core/protocol.go. Every step that takes time books it on the
// ledger.
// Received vectors are released to xport's lender once their taker is done
// with them.

// Gate is the per-round chaos check: a deathErr when this worker's schedule
// says iteration it is not run (the life driver restarts it). A restored
// incarnation skips ahead to where its schedule resumes and sends RESUME to
// the ranks that send to it; a worker that may hold a connection to the dead
// incarnation waits for it at that round before it redials.
func (w *worker) Gate(it int) (int, bool, error) {
	resumed := it < w.startIter
	it = max(it, w.startIter)
	switch {
	case w.ch == nil:
		return it, true, nil
	case !w.ch.inj.AliveAtIter(w.rank, it):
		return it, false, deathErr{it: it}
	}
	for p := range meshSize(w.cfg) {
		var err error
		switch {
		case resumed && (p == w.srv || w.srv < 0 && w.ch.owesResume(w.rank, p, it)):
			_, err = w.Send(p, &core.Msg{Kind: int(kindResume), Clock: it, Seg: w.rank})
		case w.srv < 0 && w.ch.owesResume(p, w.rank, it):
			_, _, err = w.Recv(int(kindResume), it, p, core.Block)
			w.ep.DropPeer(p)
		}
		if err != nil {
			return it, false, err
		}
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

// Compute runs the pass; a wall-clock worker has no backward time to overlap
// with. A straggler — a rank the schedule slows by a factor m at the pass's
// start — then sleeps m-1 times the pass it measured, which the simulator's
// compute multiplier stretches the same way, and books the whole as compute.
func (w *worker) Compute(bool) {
	t0, m := w.tr.Now(), 1.0
	if w.faults != nil {
		m = w.faults.inj.ComputeMult(w.rank, time.Since(w.faults.epoch).Seconds())
	}
	w.g = w.rep.ComputeGrad()
	if m > 1 {
		sp := w.span("slow", "fault")
		time.Sleep(time.Duration((m - 1) * (w.tr.Now() - t0) * float64(time.Second)))
		sp.End()
	}
	w.l.Book(core.StepCompute, t0, w.tr.Now(), 0)
	w.draws++
}

// Grad is the model's own gradient store until the next pass overwrites it,
// and Send never retains a frame, so collectives reduce it where backward
// wrote it and the step reads the sum from there.
func (w *worker) Grad() []float32 { return w.g }

// Ready returns at once: the pass Compute ran is over.
func (w *worker) Ready(int, int) {}

// Send ships m to rank to — a peer, or the PS rank — as one frame, its Vec
// where it lives: an own contribution (an AllReduce chunk or a gradient
// request) in the run's codec, anything else dense. Its wire seconds are those
// inside Endpoint.Send: frame encode, CRC and socket write.
func (w *worker) Send(to int, m *core.Msg) (float64, error) {
	f := &xport.Frame{Kind: uint16(m.Kind), From: int32(w.rank), Clock: int32(m.Clock), Seg: int32(m.Seg),
		Aux: m.Aux, Vec: m.Vec}
	if m.Own && w.codec != 0 {
		w.encodeChunk(m, f)
	}
	if to == w.srv && w.store != nil && (m.Kind != int(ps.Grad) || w.cfg.Algo != core.SSP) {
		// The PS answers every request but SSP's update with the whole
		// vector (live hosts one shard): it lands in the store.
		w.awaiting = uint16(ps.Params)
		if m.Kind == int(ps.Push) {
			w.awaiting = uint16(ps.PushReply)
		}
		w.ep.Post(&xport.Frame{From: int32(w.srv), Kind: w.awaiting, Clock: f.Clock, Vec: w.store})
	}
	t0 := time.Now()
	err := w.ep.Send(to, f)
	return time.Since(t0).Seconds(), err
}

// Recv is the worker's mailbox over its endpoint, each frame taken as a
// core.Msg from the worker's free list as it arrives, a chunk that came in
// codec form reconstructed dense. A Poll gives the endpoint one pollWindow
// and Serve waits until the endpoint closes; a Block or Bounded wait gives up
// after recvTimeout in all, with an error.
func (w *worker) Recv(kind, clock, seg int, wait core.Wait) (*core.Msg, bool, error) {
	timeout := recvTimeout
	switch wait {
	case core.Poll:
		timeout = pollWindow
	case core.Serve:
		timeout = 0 // block
	}
	deadline := time.Now().Add(timeout)
	if w.held != nil {
		w.msgs.Free(w.held)
		w.held = nil
	}
	m, ok, err := w.mb.Recv(kind, clock, seg, func() (*core.Msg, bool, error) {
		f, ok, err := w.next(deadline, timeout == 0)
		if ok && len(f.Data) > 0 {
			err = w.decodeChunk(&f)
		}
		if !ok || err != nil {
			return nil, false, err
		}
		m := w.msgs.New()
		m.Kind, m.From, m.Clock, m.Seg, m.Aux, m.Vec = int(f.Kind), int(f.From), int(f.Clock), int(f.Seg),
			f.Aux, f.Vec
		return m, true, nil
	})
	if ok {
		w.held = m
	}
	if ok || err != nil || wait == core.Poll {
		return m, ok, err
	}
	return m, false, fmt.Errorf("live: timeout waiting for kind=%d clock=%d seg=%d: %w",
		kind, clock, seg, xport.ErrTimeout)
}

// next takes the next frame off the endpoint, by deadline unless forever;
// ok is false when none came. The deadline takes a posted reply's post back,
// unless the reply has claimed it: it is landing, and next waits for it (or
// its error) — or takes whatever comes first, which ends an exchange's
// receive, and the landing reply comes through the next. The PS answers
// with the request's clock, so no other reply can claim a post.
func (w *worker) next(deadline time.Time, forever bool) (xport.Frame, bool, error) {
	for {
		remain := time.Until(deadline)
		switch {
		case forever:
			remain = 0
		case remain > 0:
		case w.awaiting == 0 || w.ep.Withdraw():
			w.awaiting = 0
			return xport.Frame{}, false, nil
		default:
			w.awaiting, remain = 0, recvTimeout
		}
		f, err := w.ep.Recv(remain)
		switch {
		case errors.Is(err, xport.ErrTimeout):
			continue
		case err != nil:
			return f, false, err
		case w.isStore(f.Vec):
			w.awaiting = 0
		}
		return f, true, nil
	}
}

// isStore reports whether vec is the parameter store a reply is posted into.
func (w *worker) isStore(vec []float32) bool {
	return len(vec) > 0 && len(w.store) > 0 && &vec[0] == &w.store[0]
}

// Release hands vec to xport's lender, unless it is the parameter store.
func (w *worker) Release(vec []float32) {
	if !w.isStore(vec) {
		(&xport.Frame{Vec: vec}).Release()
	}
}

func (w *worker) Ledger() *core.Ledger { return w.l }

// Reachable: live admits no crash schedule for gossip or AD-PSGD, and a
// partition stalls a send rather than losing it.
func (w *worker) Reachable(base []int) []int { return base }

// Go runs body on a goroutine, over a view of this worker that shares its
// replica (under the mutex newWorker armed), endpoint and mailbox — which
// the thread owns from here on — and books on a track of its own. The token
// channel holds a whole run, so hand never blocks; stop waits for the thread.
func (w *worker) Go(name string, body func(core.Env, func() (int, bool)) error) (func(int), func() error) {
	c := &worker{cfg: w.cfg, rank: w.rank, ep: w.ep, mb: w.mb, rep: w.rep, tr: w.tr,
		l: w.l.Thread()}
	tokens := make(chan int, w.cfg.Iters)
	done := make(chan error, 1)
	w.threads.Add(1)
	go func() {
		defer w.threads.Done()
		done <- body(c, func() (int, bool) {
			it, ok := <-tokens
			return it, ok
		})
	}()
	return func(it int) { tokens <- it }, func() error {
		close(tokens)
		if err := <-done; err != nil {
			return fmt.Errorf("%s thread: %w", name, err)
		}
		return nil
	}
}

// Done records the completion of iteration it: the count of iterations this
// incarnation ran, the progress cell a metrics scrape reads, the optional
// Options.progress observer, and — for the algorithms that admit a crash
// schedule — the checkpoint a restarted incarnation resumes from.
func (w *worker) Done(it int) error {
	w.iters++
	w.prog.Store(int64(it))
	if w.onProgress != nil {
		loss, _ := w.rep.Loss()
		w.onProgress(w.rank, it, loss)
	}
	if !w.cfg.Algo.Synchronous() || !w.ckpt.Due(it) {
		return nil
	}
	sp := w.span("checkpoint", "ckpt")
	defer sp.End()
	return w.rep.SaveState(w.ckpt.Path(w.rank), it, w.draws)
}
