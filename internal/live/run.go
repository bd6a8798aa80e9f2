package live

import (
	"errors"
	"fmt"
	"net"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// RunCoordinator listens on listenAddr, rendezvouses cfg.Workers worker
// processes, hosts the PS for centralized algorithms, and returns the
// run's Result. This is the multi-process entry point; RunLoopback wraps
// it (plus in-process workers) for single-machine runs.
func RunCoordinator(cfg core.Config, listenAddr string, opts ...Option) (*Result, error) {
	if err := Validate(&cfg); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("live: coordinator listen %s: %w", listenAddr, err)
	}
	return coordinate(&cfg, ln, buildOptions(&cfg, opts, 1))
}

// dialCoordinator dials coordAddr with patient retries: workers routinely
// launch before the coordinator's listener is up, and a restarted worker
// rejoins mid-run.
func dialCoordinator(coordAddr string) (net.Conn, error) {
	var conn net.Conn
	var err error
	for attempt := 0; attempt < 40; attempt++ {
		conn, err = net.DialTimeout("tcp", coordAddr, 2*time.Second)
		if err == nil {
			return conn, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("live: dial coordinator %s: %w", coordAddr, err)
}

// RunWorker dials the coordinator at coordAddr and runs one worker to
// completion. meshListen is the address the worker's mesh endpoint listens
// on ("127.0.0.1:0" for loopback; a reachable host:0 for multi-machine
// runs). The worker's rank is assigned by the coordinator.
func RunWorker(cfg core.Config, coordAddr, meshListen string, opts ...Option) error {
	if err := Validate(&cfg); err != nil {
		return err
	}
	if meshListen == "" {
		meshListen = "127.0.0.1:0"
	}
	return newLife(&cfg, buildOptions(&cfg, opts, 1), coordAddr, -1, meshListen).run()
}

// life is one worker rank across every incarnation, as one event loop over
// step fed by its control connection's reader, the training's end, and a
// tick for the heartbeat and restart timers. An incarnation trains until
// DONE, or dies on schedule and rejoins after its restart delay; each comes
// up through attach and join.
type life struct {
	cfg *core.Config
	o   *Options
	inbox
	// dial opens a control connection and spawn starts a poster; a test
	// replaces them to drive step without sockets or training.
	dial  func() (net.Conn, error)
	spawn func(func())

	rank    int      // -1 until ASSIGN
	conn    net.Conn // the incarnation's control connection; nil while dead
	want    uint16   // the control frame the rank waits for; 0 while it trains
	listen  string   // the first incarnation's mesh address
	peers   []string // from PEERS to START
	barrier *trace.WallSpan
	restart time.Time // while dead, when the rank dials back
	next    int       // where the next incarnation resumes; 0: after its checkpoint
	mesh    *xport.TCPNet
	w       *worker
	ran     int       // iterations the dead incarnations ran
	prev    doneStats // counters carried across dead incarnations
	bye     chan struct{}
	tailErr error
}

// newLife is a life that starts dead, due back now: as rank, or, with rank
// -1, as a new worker whose mesh listens on listen.
func newLife(cfg *core.Config, o *Options, coordAddr string, rank int, listen string) *life {
	l := &life{cfg: cfg, o: o, inbox: inbox{events: make(chan event)},
		rank: rank, listen: listen, restart: time.Now(), bye: make(chan struct{})}
	l.dial = func() (net.Conn, error) { return dialCoordinator(coordAddr) }
	l.spawn = l.inbox.spawn
	return l
}

// run applies the events and a tick — the heartbeat's, or a dead rank's
// restart time — through step until the life ends, then tears down: on a
// failure the tail is released and a training in flight ends on its closed
// endpoint; every poster is drained.
func (l *life) run() (err error) {
	beat := time.NewTicker(heartbeatPeriod)
	defer beat.Stop()
	for end, now := false, time.Now(); !end && err == nil; {
		ev, tick := event{}, beat.C
		if !l.restart.IsZero() {
			tick = time.After(l.restart.Sub(now))
		}
		select {
		case ev = <-l.events:
			now = time.Now()
		case now = <-tick:
		}
		end, err = l.step(ev, now)
	}
	if err != nil {
		close(l.bye)
		if l.mesh != nil {
			l.mesh.Close()
		}
	}
	if l.conn != nil {
		l.conn.Close()
	}
	l.drain()
	l.close()
	if err == nil && l.tailErr != nil {
		err = fmt.Errorf("live: worker %d tail: %w", l.rank, l.tailErr)
	}
	return err
}

// step applies one event at time now: the worker's every rule, from HELLO
// to BYE. It reports whether the life has ended, or the error that fails it.
// A frame or error on a connection not the current incarnation's changes
// nothing.
func (l *life) step(ev event, now time.Time) (end bool, err error) {
	switch {
	case ev.trained:
		return l.trained(ev.err, now)
	case ev.conn == nil:
		return false, l.tick(now)
	case ev.conn != l.conn:
		return false, nil
	case ev.err != nil:
		return false, l.fail(fmt.Errorf("control connection lost: %w", ev.err))
	case l.want == 0 || ev.f.Kind != l.want:
		return false, l.fail(fmt.Errorf("control kind %d out of turn", ev.f.Kind))
	}
	switch f := ev.f; f.Kind {
	case kindAssign:
		if l.rank, err = parseAssign(l.cfg, f); err != nil {
			return false, l.fail(err)
		}
		// The replica is built here, before READY, so the START barrier
		// measures training, not model building.
		if err := l.attach(l.listen); err != nil {
			return false, err
		}
		l.want = kindPeers
		return false, l.write(&xport.Frame{Kind: kindAddr, From: int32(l.rank), Data: []byte(l.mesh.Addr())})
	case kindPeers:
		if l.peers, err = parsePeers(f.Data, meshSize(l.cfg)); err != nil {
			return false, l.fail(err)
		}
		// The wait between READY and START is the run's admission barrier:
		// its span shows how long this rank idled for the slowest peer.
		l.want, l.barrier = kindStart, l.o.tracer.StartSpan("start-barrier", "barrier", workerPid, l.rank)
		return false, l.write(&xport.Frame{Kind: kindReady, From: int32(l.rank)})
	case kindStart:
		l.barrier.End()
		l.join(l.peers, 0, now)
		l.train()
		return false, nil
	case kindRejoinOK:
		return l.rejoined(f, now)
	}
	close(l.bye) // BYE: the tail's release
	return true, nil
}

// fail is err as the worker's error, naming its rank and the frame it waits
// for.
func (l *life) fail(err error) error {
	if l.want == kindAssign {
		return fmt.Errorf("live: assign: %w", err)
	}
	what := map[uint16]string{kindPeers: "peers", kindStart: "start", kindRejoinOK: "rejoin-ok", kindBye: "bye", 0: "training"}
	return fmt.Errorf("live: worker %d %s: %w", l.rank, what[l.want], err)
}

// write sends f on the incarnation's control connection.
func (l *life) write(f *xport.Frame) error {
	if err := writeCtl(l.conn, f); err != nil {
		return fmt.Errorf("live: worker %d: write control kind %d: %w", l.rank, f.Kind, err)
	}
	return nil
}

// tick renews the incarnation's lease while it trains under a crash
// schedule, and with it the read of a control connection that hears nothing
// until BYE. Once a dead rank's restart time has come, it dials the
// coordinator, gives the connection a reader, and asks for a rank (HELLO)
// or to rejoin with its own (REJOIN).
func (l *life) tick(now time.Time) error {
	switch {
	case l.conn != nil && l.want == 0 && l.w.ch != nil:
		l.conn.SetReadDeadline(now.Add(ctlTimeout))
		return l.write(&xport.Frame{Kind: kindHeartbeat, From: int32(l.rank)})
	case l.restart.IsZero() || now.Before(l.restart):
		return nil
	}
	l.restart = time.Time{}
	c, err := l.dial()
	if err != nil {
		return err
	}
	f := &xport.Frame{Kind: kindRejoin, From: int32(l.rank), Data: []byte(fingerprint(l.cfg))}
	if l.conn, l.want = c, kindRejoinOK; l.rank < 0 {
		f.Kind, l.want = kindHello, kindAssign
	}
	l.spawn(func() { l.read(c) })
	return l.write(f)
}

// train starts the incarnation's training, which posts its end and, after a
// clean one, absorbs the tail until BYE.
func (l *life) train() {
	w := l.w
	l.want = 0
	l.spawn(func() {
		err := w.run()
		l.events <- event{trained: true, err: err}
		if err == nil {
			l.tailErr = w.tail(l.bye)
		}
	})
}

// trained ends an incarnation's training: DONE with every incarnation's
// counters, a failed DONE, or a scheduled death — the incarnation torn down
// mid-protocol, as a killed process would be, then its restart time set, or
// the life ended under WithExitOnDeath or when the schedule never revives it.
func (l *life) trained(err error, now time.Time) (bool, error) {
	l.prev.Add(l.mesh.Stats())
	l.prev.Breakdown.Merge(l.w.l.Breakdown())
	l.ran += l.w.iters
	var d deathErr
	switch {
	case errors.As(err, &d):
		l.close()
		if l.o.exitOnDeath {
			return false, ErrScheduledDeath
		}
		l.next = l.w.ch.inj.NextAliveIter(l.rank, d.it)
		l.restart = now.Add(time.Duration(l.w.ch.inj.RestartDelay(l.rank, d.it) * float64(time.Second)))
		return l.next == 0 || l.next > l.cfg.Iters, nil
	case err != nil:
		_ = l.write(&xport.Frame{Kind: kindDone, From: int32(l.rank), Seg: -1, Data: []byte(err.Error())})
		return false, err
	}
	rep := l.w.report()
	rep.stats, rep.iters, l.want = l.prev, l.ran, kindBye
	return false, l.write(rep.frame(l.rank))
}

// rejoined brings a dead rank back at REJOIN-OK: the mesh attached on its
// original port (its entry in the peer table, so peers' tables stay valid),
// its faults anchored at the run's START, the latest checkpoint restored
// — without one the replica restarts from initialization and loses that
// worker's progress — and training resumed where the schedule says, or, in a
// relaunched process, after the checkpoint's step.
func (l *life) rejoined(f xport.Frame, now time.Time) (bool, error) {
	peers, err := parsePeers(f.Data, meshSize(l.cfg))
	if err != nil {
		return false, l.fail(err)
	}
	if err := l.attach(peers[l.rank]); err != nil {
		return false, err
	}
	l.join(peers, f.Aux, now)
	// Restore the latest checkpoint: parameters, momentum, loss EWMA, draws.
	step, ch := 0, l.w.ch
	if l.o.ckpt.Enabled() {
		sp := l.w.span("restore", "ckpt")
		if step, l.w.draws, err = l.w.rep.RestoreState(l.o.ckpt.Path(l.rank)); err == nil {
			l.prev.Restores++
			l.o.metrics.addRestore()
		}
		sp.End()
	}
	if l.next == 0 {
		// The first dead window after the checkpointed step is the death
		// this relaunch recovers from.
		die := ch.firstDeath(l.rank, step+1)
		if die == 0 {
			return false, fmt.Errorf("live: worker %d has no dead window after checkpoint step %d — nothing to rejoin", l.rank, step)
		}
		l.next, l.ran = ch.inj.NextAliveIter(l.rank, die), ch.ran(l.rank, die-1)
		if l.next == 0 || l.next > l.cfg.Iters {
			return true, nil
		}
	}
	l.w.startIter = l.next
	l.train()
	return false, nil
}

// attach brings up this incarnation's mesh endpoint (Options.listen on addr)
// and a fresh worker over it. Listening retries: a restart rebinds the rank's
// original port, where the dead incarnation's socket may linger briefly.
func (l *life) attach(addr string) error {
	for attempt := 0; l.mesh == nil; attempt++ {
		t, err := l.o.listen(l.rank, meshSize(l.cfg), addr)
		switch {
		case err == nil:
			l.mesh = t
		case attempt == 49:
			return fmt.Errorf("live: worker %d mesh listen %s: %w", l.rank, addr, err)
		default:
			time.Sleep(100 * time.Millisecond)
		}
	}
	l.w = newWorker(l.cfg, l.rank, l.mesh, l.o)
	return nil
}

// join installs the peer table and the rank's faults, their clock anchored
// at the run's START, elapsed seconds before now.
func (l *life) join(peers []string, elapsed float64, now time.Time) {
	l.mesh.SetPeers(peers)
	if f := newRankFaults(l.cfg, l.rank, now.Add(-time.Duration(elapsed*float64(time.Second)))); f != nil {
		l.w.faults = f
		l.mesh.SetFaults(f, f.epoch)
	}
}

// close releases the current incarnation's mesh and control connection, and
// waits for the second thread the mesh's close ends.
func (l *life) close() {
	if l.mesh != nil {
		l.mesh.Close()
		l.w.threads.Wait()
		l.mesh = nil
	}
	if l.conn != nil {
		l.conn.Close()
		l.conn = nil
	}
}

// RunWorkerRejoin is the external-restart entry point: a worker process
// that was killed (rather than dying in-process under RunWorker's life
// loop) relaunches with its original rank, restores its checkpoint, and
// re-enters the run through the coordinator's REJOIN handshake. It
// requires a crash schedule (to locate the dead window) and a checkpoint
// directory.
func RunWorkerRejoin(cfg core.Config, coordAddr string, rank int, opts ...Option) error {
	if err := Validate(&cfg); err != nil {
		return err
	}
	o := buildOptions(&cfg, opts, 1)
	if newChaos(&cfg) == nil {
		return fmt.Errorf("live: rejoin requires a crash fault schedule")
	}
	if rank < 0 || rank >= cfg.Workers {
		return fmt.Errorf("live: rejoin rank %d out of range [0,%d)", rank, cfg.Workers)
	}
	if !o.ckpt.Enabled() {
		return fmt.Errorf("live: rejoin requires a checkpoint directory")
	}
	return newLife(&cfg, o, coordAddr, rank, "").run()
}

// RunLoopback performs a complete live run on this machine: a coordinator
// and cfg.Workers workers, each a goroutine, rendezvousing and training
// over loopback TCP sockets — the full wire path with no orchestration.
func RunLoopback(cfg core.Config, opts ...Option) (*Result, error) {
	return runLocal(cfg, opts, false)
}

// RunChan is RunLoopback with the data plane over in-memory pipes: the
// coordinator and the workers rendezvous on the same loopback listener, and
// every rank's mesh endpoint is its own of one xport.ChanNet, whose
// endpoints are TCP's, faults and counters included, over pipes. Real
// goroutine scheduling still applies, so asynchronous algorithms remain
// nondeterministic.
func RunChan(cfg core.Config, opts ...Option) (*Result, error) {
	return runLocal(cfg, opts, true)
}

// runLocal runs the coordinator and cfg.Workers lives in this process, the
// mesh over loopback TCP or, with chanMesh, one xport.ChanNet.
func runLocal(cfg core.Config, opts []Option, chanMesh bool) (*Result, error) {
	if err := Validate(&cfg); err != nil {
		return nil, err
	}
	o := buildOptions(&cfg, opts, meshSize(&cfg))
	if chanMesh {
		o.chanNet = xport.NewChanNet(meshSize(&cfg))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live: loopback listen: %w", err)
	}

	workerErrs := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		wcfg := cfg
		go func() { workerErrs <- newLife(&wcfg, o, ln.Addr().String(), -1, "127.0.0.1:0").run() }()
	}

	// The coordinator's error comes first, then the first worker's. The
	// coordinator closes ln as it returns, so a worker that would rejoin a
	// run that has ended is refused at the door.
	res, err := coordinate(&cfg, ln, o)
	for i := 0; i < cfg.Workers; i++ {
		if werr := <-workerErrs; werr != nil && err == nil {
			res, err = nil, werr
		}
	}
	return res, err
}
