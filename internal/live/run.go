package live

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
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
	return coordinate(&cfg, ln, buildOptions(opts))
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
	return runWorker(&cfg, coordAddr, meshListen, buildOptions(opts))
}

// runWorker dials the coordinator and drives one worker rank from the
// rendezvous to the coordinator's BYE.
func runWorker(cfg *core.Config, coordAddr, meshListen string, o *Options) error {
	conn, err := dialCoordinator(coordAddr)
	if err != nil {
		return err
	}
	l := &life{cfg: cfg, o: o, fp: fingerprint(cfg), coordAddr: conn.RemoteAddr().String(),
		link: &ctlLink{c: conn}}
	defer l.close()
	if err := l.start(meshListen); err != nil {
		return err
	}
	return l.run()
}

// life drives one worker rank across every incarnation of its process
// state: run until DONE, or die on schedule, sleep out the restart delay,
// rejoin, restore from checkpoint, and run again. Every incarnation comes up
// through the same two steps, attach and join, and every one after the first
// through restart.
type life struct {
	cfg       *core.Config
	o         *Options
	rank      int
	fp        string
	coordAddr string
	link      *ctlLink
	mesh      *xport.TCPNet
	w         *worker
	prev      doneStats // counters carried across dead incarnations
}

// heartbeat renews the incarnation's liveness lease with the coordinator,
// under a crash schedule, until the returned stop is called (or the link
// dies).
func (l *life) heartbeat() (stop func()) {
	if l.w.ch == nil {
		return func() {}
	}
	link, w, done := l.link, l.w, make(chan struct{})
	go func() {
		t := time.NewTicker(heartbeatPeriod)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				if link.write(&xport.Frame{Kind: kindHeartbeat, From: int32(w.rank),
					Clock: int32(w.prog.Load())}) != nil {
					return
				}
			}
		}
	}()
	return func() { close(done) }
}

// start is the first incarnation's rendezvous: HELLO, the assigned rank, the
// mesh attached and its address traded for the peer table, READY, and the
// join at START.
func (l *life) start(meshListen string) error {
	if err := l.link.write(&xport.Frame{Kind: kindHello, Data: []byte(l.fp)}); err != nil {
		return fmt.Errorf("live: hello: %w", err)
	}
	f, err := readCtl(l.link.c, kindAssign)
	if err == nil {
		l.rank, err = parseAssign(l.cfg, f)
	}
	if err != nil {
		return fmt.Errorf("live: assign: %w", err)
	}
	// The replica is built here, before READY, so the START barrier measures
	// training, not model building.
	if err := l.attach(meshListen); err != nil {
		return err
	}
	if err := l.link.write(&xport.Frame{Kind: kindAddr, From: int32(l.rank),
		Data: []byte(l.mesh.Addr())}); err != nil {
		return fmt.Errorf("live: worker %d addr: %w", l.rank, err)
	}
	f, err = readCtl(l.link.c, kindPeers)
	var peers []string
	if err == nil {
		peers, err = parsePeers(f.Data, meshSize(l.cfg))
	}
	if err != nil {
		return fmt.Errorf("live: worker %d peers: %w", l.rank, err)
	}
	if err := l.link.write(&xport.Frame{Kind: kindReady, From: int32(l.rank)}); err != nil {
		return fmt.Errorf("live: worker %d ready: %w", l.rank, err)
	}
	// The wait between READY and START is the run's admission barrier: its
	// span length shows how long this rank idled for the slowest peer.
	spBarrier := l.o.tracer.StartSpan("start-barrier", "barrier", workerPid, l.rank)
	if _, err := readCtl(l.link.c, kindStart); err != nil {
		return fmt.Errorf("live: worker %d start: %w", l.rank, err)
	}
	spBarrier.End()
	l.join(peers, 0)
	return nil
}

// restart brings a dead rank back: the REJOIN handshake on a new control
// connection, the mesh attached on the rank's original port (its entry in the
// coordinator's peer table, so peers' tables stay valid) and joined with the
// fault plan re-anchored at the run's START, and the latest checkpoint
// restored. It returns the checkpoint's step, 0 without one — the replica
// then restarts from initialization: the run still completes, it just loses
// that worker's progress.
func (l *life) restart() (int, error) {
	conn, err := dialCoordinator(l.coordAddr)
	if err != nil {
		return 0, err
	}
	l.link = &ctlLink{c: conn}
	if err := l.link.write(&xport.Frame{Kind: kindRejoin, From: int32(l.rank),
		Data: []byte(l.fp)}); err != nil {
		return 0, fmt.Errorf("live: worker %d rejoin: %w", l.rank, err)
	}
	ok, err := readCtl(conn, kindRejoinOK)
	var peers []string
	if err == nil {
		peers, err = parsePeers(ok.Data, meshSize(l.cfg))
	}
	if err != nil {
		return 0, fmt.Errorf("live: worker %d rejoin-ok: %w", l.rank, err)
	}
	if err := l.attach(peers[l.rank]); err != nil {
		return 0, err
	}
	l.join(peers, ok.Aux)
	return l.restore(), nil
}

// attach brings up this incarnation's mesh endpoint on addr and a fresh
// worker over it. Listening retries: a restart rebinds the rank's original
// port, where the dead incarnation's socket may linger briefly.
func (l *life) attach(addr string) error {
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		if l.mesh, err = xport.ListenTCP(l.rank, meshSize(l.cfg), addr); err == nil {
			l.w = newWorker(l.cfg, l.rank, l.mesh, l.o)
			return nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return fmt.Errorf("live: worker %d mesh listen %s: %w", l.rank, addr, err)
}

// join installs the peer table and anchors the rank's fault plan at the
// run's START, elapsed seconds ago.
func (l *life) join(peers []string, elapsed float64) {
	l.mesh.SetPeers(peers)
	// Validate translated this schedule already, so it cannot fail here.
	plan, _ := TranslateFaults(l.cfg.Faults, l.cfg.Seed+uint64(l.rank), l.cfg.Cluster,
		l.cfg.Workers, l.o.slowUnit)
	if plan != nil {
		l.mesh.SetFaults(plan, time.Now().Add(-time.Duration(elapsed*float64(time.Second))))
	}
}

// restore loads the rank's latest checkpoint into the fresh worker —
// parameters, momentum, loss EWMA, sampler position — and returns its step,
// 0 when there is none.
func (l *life) restore() int {
	if !l.o.ckpt.Enabled() {
		return 0
	}
	sp := l.w.span("restore", "ckpt")
	defer sp.End()
	step, draws, err := l.w.rep.RestoreState(l.o.ckpt.Path(l.rank))
	if err != nil {
		return 0
	}
	l.w.draws = draws
	l.prev.Restores++
	l.o.metrics.addRestore()
	return step
}

// close releases the current incarnation's mesh and control connection, and
// waits for the second thread the mesh's close ends.
func (l *life) close() {
	if l.mesh != nil {
		l.mesh.Close()
		l.w.threads.Wait()
	}
	if l.link != nil {
		l.link.c.Close()
	}
}

// run is the incarnation loop: train until DONE or scheduled death,
// restarting through the rejoin handshake as many times as the schedule
// demands. Returns nil without a DONE when the schedule never revives the
// rank — the coordinator writes that rank off from its last heartbeat.
func (l *life) run() error {
	cfg, rank := l.cfg, l.rank
	for {
		stopHeartbeat := l.heartbeat()
		runErr := l.w.run()
		stopHeartbeat()
		var d deathErr
		if errors.As(runErr, &d) {
			// Scheduled death: tear the incarnation down abruptly — close
			// the mesh and control connection mid-protocol, exactly what a
			// killed process would leave behind.
			l.prev.Add(l.mesh.Stats())
			l.prev.Breakdown.Merge(l.w.l.Breakdown())
			l.close()
			if l.o.exitOnDeath {
				// External-restart mode: the supervisor owns the relaunch
				// (RunWorkerRejoin); this process is done.
				return ErrScheduledDeath
			}
			next := l.w.ch.inj.NextAliveIter(rank, d.it)
			if next == 0 || next > cfg.Iters {
				return nil
			}
			time.Sleep(time.Duration(l.w.ch.inj.RestartDelay(rank, d.it) * float64(time.Second)))
			if _, err := l.restart(); err != nil {
				return err
			}
			l.w.startIter = next
			continue
		}
		if runErr != nil {
			// Report the failure instead of a DONE so the coordinator
			// aborts with the cause rather than a timeout.
			_ = l.link.write(&xport.Frame{Kind: kindDone, From: int32(rank), Seg: -1,
				Data: []byte(runErr.Error())})
			return runErr
		}
		break
	}

	rep := l.w.report()
	l.prev.Breakdown.Merge(rep.stats.Breakdown)
	rep.stats = l.prev
	rep.stats.Add(l.mesh.Stats())
	if err := l.link.write(rep.frame(rank)); err != nil {
		return fmt.Errorf("live: worker %d done: %w", rank, err)
	}

	// Stay responsive until the coordinator's BYE: gossip targets and
	// AD-PSGD passives must outlive the slowest worker.
	stop := make(chan struct{})
	byeErr := make(chan error, 1)
	go func() {
		_, err := readCtl(l.link.c, kindBye)
		close(stop)
		byeErr <- err
	}()
	if err := l.w.tail(stop); err != nil {
		return fmt.Errorf("live: worker %d tail: %w", rank, err)
	}
	if err := <-byeErr; err != nil {
		return fmt.Errorf("live: worker %d bye: %w", rank, err)
	}
	return nil
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
	o := buildOptions(opts)
	ch := newChaos(&cfg)
	if ch == nil {
		return fmt.Errorf("live: rejoin requires a crash fault schedule")
	}
	if rank < 0 || rank >= cfg.Workers {
		return fmt.Errorf("live: rejoin rank %d out of range [0,%d)", rank, cfg.Workers)
	}
	if !o.ckpt.Enabled() {
		return fmt.Errorf("live: rejoin requires a checkpoint directory")
	}

	// A life that starts dead: the relaunched process comes up through
	// restart, as an in-process restart does.
	l := &life{cfg: &cfg, o: o, rank: rank, fp: fingerprint(&cfg), coordAddr: coordAddr}
	defer l.close()
	step, err := l.restart()
	if err != nil {
		return err
	}
	// The first dead window after the checkpointed step is the death this
	// relaunch recovers from.
	die := ch.firstDeath(rank, step+1)
	if die == 0 {
		return fmt.Errorf("live: worker %d has no dead window after checkpoint step %d — nothing to rejoin", rank, step)
	}
	next := ch.inj.NextAliveIter(rank, die)
	if next == 0 || next > cfg.Iters {
		return nil
	}
	l.w.startIter = next
	return l.run()
}

// RunLoopback performs a complete live run on this machine: a coordinator
// and cfg.Workers workers, each a goroutine, rendezvousing and training
// over loopback TCP sockets — the full wire path with no orchestration.
func RunLoopback(cfg core.Config, opts ...Option) (*Result, error) {
	if err := Validate(&cfg); err != nil {
		return nil, err
	}
	o := buildOptions(opts)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("live: loopback listen: %w", err)
	}

	workerErrs := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		wcfg := cfg
		go func() { workerErrs <- runWorker(&wcfg, ln.Addr().String(), "127.0.0.1:0", o) }()
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

// RunChan performs a complete live run over the in-process channel
// transport: no sockets, no rendezvous — a direct harness for the worker
// and server protocol loops. Real goroutine scheduling still applies, so
// asynchronous algorithms remain nondeterministic.
func RunChan(cfg core.Config, opts ...Option) (*Result, error) {
	if err := Validate(&cfg); err != nil {
		return nil, err
	}
	if cfg.Faults.HasKind(fault.Crash) {
		return nil, fmt.Errorf("live: crash faults need the TCP transport (RunLoopback) for the restart/rejoin machinery")
	}
	o := buildOptions(opts)
	n := meshSize(&cfg)
	cn := xport.NewChanNet(n)

	waitServer := noServer
	if cfg.Algo.Centralized() {
		waitServer = startServer(&cfg, cn.Endpoint(cfg.Workers), o)
	}

	start := time.Now()
	reports := make([]doneInfo, cfg.Workers)
	errs := make([]error, cfg.Workers)
	workers := make([]*worker, cfg.Workers)
	stop := make(chan struct{})
	var running, tails sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		w := newWorker(&cfg, i, cn.Endpoint(i), o)
		workers[i] = w
		running.Add(1)
		tails.Add(1)
		go func() {
			defer tails.Done()
			err := w.run()
			reports[i] = w.report()
			running.Done()
			if err == nil {
				err = w.tail(stop)
			}
			errs[i] = err
		}()
	}

	running.Wait()
	wall := time.Since(start).Seconds()
	finalGlobal, srvErr := waitServer()
	close(stop) // the in-process BYE: release the tail loops
	tails.Wait()
	if srvErr != nil {
		return nil, srvErr
	}
	for i := 0; i < n; i++ {
		cn.Endpoint(i).Close()
	}
	for _, w := range workers {
		w.threads.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	return buildResult(&cfg, "chan", reports, finalGlobal, wall, nil)
}
