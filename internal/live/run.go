package live

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/nn"
	"disttrain/internal/rng"
	"disttrain/internal/xport"
)

// newEvalModel builds the evaluation model from the shared init stream,
// the same construction the simulator uses for its eval model.
func newEvalModel(cfg *core.Config) *nn.Model {
	return cfg.Real.Factory(rng.New(cfg.Seed).Split(1))
}

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
	defer ln.Close()
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
	conn, err := dialCoordinator(coordAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return runWorkerConn(&cfg, conn, meshListen, buildOptions(opts))
}

// life drives one worker rank across every incarnation of its process
// state: run until DONE, or die on schedule, sleep out the restart delay,
// rejoin, restore from checkpoint, and run again.
type life struct {
	cfg        *core.Config
	o          *Options
	rank       int
	n          int
	fp         string
	coordAddr  string
	myMeshAddr string
	plan       *xport.FaultPlan
	link       *ctlLink
	mesh       *xport.TCPNet
	w          *worker
	prev       doneStats // counters carried across dead incarnations
}

// startHeartbeat renews the worker's liveness lease with the coordinator
// until the returned channel is closed (or the link dies).
func startHeartbeat(link *ctlLink, w *worker) chan struct{} {
	stop := make(chan struct{})
	go func() {
		t := time.NewTicker(heartbeatPeriod)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if link.write(&xport.Frame{Kind: kindHeartbeat, From: int32(w.rank),
					Clock: int32(w.prog.Load())}) != nil {
					return
				}
			}
		}
	}()
	return stop
}

// rejoinCoordinator performs the restarted worker's re-admission handshake
// and returns the new control connection plus the REJOIN-OK frame.
func rejoinCoordinator(coordAddr, fp string, rank int) (net.Conn, xport.Frame, error) {
	conn, err := dialCoordinator(coordAddr)
	if err != nil {
		return nil, xport.Frame{}, err
	}
	if err := writeCtl(conn, &xport.Frame{Kind: kindRejoin, From: int32(rank),
		Data: []byte(fp)}); err != nil {
		conn.Close()
		return nil, xport.Frame{}, fmt.Errorf("live: worker %d rejoin: %w", rank, err)
	}
	ok, err := readCtl(conn, kindRejoinOK)
	if err != nil {
		conn.Close()
		return nil, xport.Frame{}, fmt.Errorf("live: worker %d rejoin-ok: %w", rank, err)
	}
	return conn, ok, nil
}

// rebindMesh re-listens on the worker's original mesh address. The old
// socket may linger briefly after an abrupt close, so it retries.
func rebindMesh(rank, n int, addr string) (*xport.TCPNet, error) {
	var mesh *xport.TCPNet
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		mesh, err = xport.ListenTCP(rank, n, addr)
		if err == nil {
			return mesh, nil
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("live: worker %d rebind mesh %s: %w", rank, addr, err)
}

// restart rebuilds the worker's process state after a scheduled death: new
// control connection via the rejoin handshake, mesh re-listened on the same
// port (so peers' address tables stay valid), fault-plan clock re-anchored
// to the run's START, and a fresh replica restored from the latest
// checkpoint. Without a checkpoint the replica restarts from initialization
// — the run still completes, it just loses that worker's progress.
func (l *life) restart(next int) error {
	conn, ok, err := rejoinCoordinator(l.coordAddr, l.fp, l.rank)
	if err != nil {
		return err
	}
	l.link = &ctlLink{c: conn}
	peerAddrs := strings.Split(string(ok.Data), ",")
	mesh, err := rebindMesh(l.rank, l.n, l.myMeshAddr)
	if err != nil {
		conn.Close()
		return err
	}
	mesh.SetPeers(peerAddrs)
	if l.plan != nil {
		mesh.SetFaults(l.plan, time.Now().Add(-time.Duration(ok.Aux*float64(time.Second))))
	}
	l.mesh = mesh
	l.w = newWorker(l.cfg, l.rank, mesh, l.o)
	if l.o != nil && l.o.ckpt.Enabled() {
		sp := l.w.span("restore", "ckpt")
		if _, draws, err := l.w.rep.RestoreState(l.o.ckpt.Path(l.rank)); err == nil {
			l.w.draws = draws
			l.prev.Restores++
			l.o.metrics.addRestore()
		}
		sp.End()
	}
	l.w.startIter = next
	return nil
}

// run is the incarnation loop: train until DONE or scheduled death,
// restarting through the rejoin handshake as many times as the schedule
// demands. Returns nil without a DONE when the schedule never revives the
// rank — the coordinator writes that rank off from its last heartbeat.
func (l *life) run() error {
	cfg, rank := l.cfg, l.rank
	for {
		var hbStop chan struct{}
		if l.w.ch != nil {
			hbStop = startHeartbeat(l.link, l.w)
		}
		runErr := l.w.run()
		if hbStop != nil {
			close(hbStop)
		}
		var d deathErr
		if errors.As(runErr, &d) {
			// Scheduled death: tear the incarnation down abruptly — close
			// the mesh and control connection mid-protocol, exactly what a
			// killed process would leave behind.
			l.prev.add(l.mesh.Stats())
			l.mesh.Close()
			l.link.c.Close()
			if l.o != nil && l.o.exitOnDeath {
				// External-restart mode: the supervisor owns the relaunch
				// (RunWorkerRejoin); this process is done.
				return ErrScheduledDeath
			}
			next := l.w.ch.nextAlive(rank, d.it)
			if next == 0 || next > cfg.Iters {
				return nil
			}
			time.Sleep(time.Duration(l.w.ch.restartDelay(rank, d.it) * float64(time.Second)))
			if err := l.restart(next); err != nil {
				return err
			}
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

	loss, lossInit := l.w.rep.Loss()
	seg := int32(0)
	if lossInit {
		seg = 1
	}
	ds := l.prev
	ds.add(l.mesh.Stats())
	payload, _ := json.Marshal(ds)
	if err := l.link.write(&xport.Frame{Kind: kindDone, From: int32(rank),
		Clock: int32(l.w.iters), Seg: seg, Aux: loss, Vec: l.w.rep.Params(), Data: payload}); err != nil {
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

// runWorkerConn executes the worker side of the rendezvous protocol and
// the training run on an established coordinator connection.
func runWorkerConn(cfg *core.Config, conn net.Conn, meshListen string, o *Options) error {
	fp := fingerprint(cfg)
	link := &ctlLink{c: conn}
	if err := link.write(&xport.Frame{Kind: kindHello, Data: []byte(fp)}); err != nil {
		return fmt.Errorf("live: hello: %w", err)
	}
	assign, err := readCtl(conn, kindAssign)
	if err != nil {
		return fmt.Errorf("live: assign: %w", err)
	}
	rank, n := int(assign.From), int(assign.Clock)

	mesh, err := xport.ListenTCP(rank, n, meshListen)
	if err != nil {
		return fmt.Errorf("live: worker %d mesh listen: %w", rank, err)
	}
	if err := link.write(&xport.Frame{Kind: kindAddr, From: int32(rank),
		Data: []byte(mesh.Addr())}); err != nil {
		mesh.Close()
		return fmt.Errorf("live: worker %d addr: %w", rank, err)
	}
	peers, err := readCtl(conn, kindPeers)
	if err != nil {
		mesh.Close()
		return fmt.Errorf("live: worker %d peers: %w", rank, err)
	}
	peerAddrs := strings.Split(string(peers.Data), ",")
	mesh.SetPeers(peerAddrs)

	// Replica construction happens before READY so the START barrier
	// measures training, not model building.
	w := newWorker(cfg, rank, mesh, o)
	if err := link.write(&xport.Frame{Kind: kindReady, From: int32(rank)}); err != nil {
		mesh.Close()
		return fmt.Errorf("live: worker %d ready: %w", rank, err)
	}
	// The wait between READY and START is the run's admission barrier: its
	// span length shows how long this rank idled for the slowest peer.
	spBarrier := o.tracer.StartSpan("start-barrier", "barrier", workerPid, rank)
	if _, err := readCtl(conn, kindStart); err != nil {
		mesh.Close()
		return fmt.Errorf("live: worker %d start: %w", rank, err)
	}
	spBarrier.End()
	var plan *xport.FaultPlan
	if p, perr := TranslateFaults(cfg.Faults, cfg.Seed+uint64(rank), cfg.Cluster,
		cfg.Workers, o.slowUnit); perr == nil {
		plan = p
	}
	if plan != nil {
		mesh.SetFaults(plan, time.Now())
	}

	l := &life{
		cfg: cfg, o: o, rank: rank, n: n, fp: fp,
		coordAddr:  conn.RemoteAddr().String(),
		myMeshAddr: peerAddrs[rank],
		plan:       plan, link: link, mesh: mesh, w: w,
	}
	// Deferred closures see the *current* incarnation's handles: restarts
	// replace l.mesh and l.link.
	defer func() { l.mesh.Close() }()
	defer func() { l.link.c.Close() }()
	return l.run()
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
	n := meshSize(&cfg)
	fp := fingerprint(&cfg)

	conn, ok, err := rejoinCoordinator(coordAddr, fp, rank)
	if err != nil {
		return err
	}
	peerAddrs := strings.Split(string(ok.Data), ",")
	mesh, err := rebindMesh(rank, n, peerAddrs[rank])
	if err != nil {
		conn.Close()
		return err
	}
	mesh.SetPeers(peerAddrs)
	var plan *xport.FaultPlan
	if p, perr := TranslateFaults(cfg.Faults, cfg.Seed+uint64(rank), cfg.Cluster,
		cfg.Workers, o.slowUnit); perr == nil {
		plan = p
	}
	if plan != nil {
		mesh.SetFaults(plan, time.Now().Add(-time.Duration(ok.Aux*float64(time.Second))))
	}

	l := &life{
		cfg: &cfg, o: o, rank: rank, n: n, fp: fp,
		coordAddr:  conn.RemoteAddr().String(),
		myMeshAddr: peerAddrs[rank],
		plan:       plan, link: &ctlLink{c: conn},
		mesh: mesh,
		w:    newWorker(&cfg, rank, mesh, o),
	}
	defer func() { l.mesh.Close() }()
	defer func() { l.link.c.Close() }()

	// Locate the resume point from the checkpoint: the first dead window
	// after the checkpointed step is the death this relaunch recovers from.
	step := 0
	spRestore := l.w.span("restore", "ckpt")
	if s, draws, rerr := l.w.rep.RestoreState(o.ckpt.Path(rank)); rerr == nil {
		step, l.w.draws = s, draws
		l.prev.Restores++
		o.metrics.addRestore()
	}
	spRestore.End()
	die := 0
	for it := step + 1; it <= cfg.Iters; it++ {
		if !ch.aliveAt(rank, it) {
			die = it
			break
		}
	}
	if die == 0 {
		return fmt.Errorf("live: worker %d has no dead window after checkpoint step %d — nothing to rejoin", rank, step)
	}
	next := ch.nextAlive(rank, die)
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
	defer ln.Close()

	workerErrs := make(chan error, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		wcfg := cfg
		go func() {
			conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
			if err != nil {
				workerErrs <- fmt.Errorf("live: dial coordinator: %w", err)
				return
			}
			defer conn.Close()
			workerErrs <- runWorkerConn(&wcfg, conn, "127.0.0.1:0", o)
		}()
	}

	res, err := coordinate(&cfg, ln, o)
	var firstWorkerErr error
	for i := 0; i < cfg.Workers; i++ {
		if werr := <-workerErrs; werr != nil && firstWorkerErr == nil {
			firstWorkerErr = werr
		}
	}
	if err != nil {
		return nil, err
	}
	if firstWorkerErr != nil {
		return nil, firstWorkerErr
	}
	return res, nil
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

	var finalGlobal []float32
	srvDone := make(chan error, 1)
	if cfg.Algo.Centralized() {
		go func() {
			sv := newServer(&cfg, cn.Endpoint(cfg.Workers), o)
			params, err := sv.run()
			finalGlobal = params
			srvDone <- err
		}()
	} else {
		srvDone <- nil
	}

	start := time.Now()
	workers := make([]*worker, cfg.Workers)
	reports := make([]doneInfo, cfg.Workers)
	errs := make([]error, cfg.Workers)
	stop := make(chan struct{})
	var running sync.WaitGroup
	var tails sync.WaitGroup
	for i := 0; i < cfg.Workers; i++ {
		i := i
		workers[i] = newWorker(&cfg, i, cn.Endpoint(i), o)
		running.Add(1)
		tails.Add(1)
		go func() {
			w := workers[i]
			err := w.run()
			loss, lossInit := w.rep.Loss()
			reports[i] = doneInfo{iters: w.iters, loss: loss, lossInit: lossInit, params: w.rep.Params()}
			errs[i] = err
			running.Done()
			if err == nil {
				err = w.tail(stop)
				if err != nil {
					errs[i] = err
				}
			}
			tails.Done()
		}()
	}

	running.Wait()
	wall := time.Since(start).Seconds()
	if err := <-srvDone; err != nil {
		close(stop)
		tails.Wait()
		return nil, err
	}
	close(stop) // the in-process BYE: release the tail loops
	tails.Wait()
	for i := 0; i < n; i++ {
		cn.Endpoint(i).Close()
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	res, err := buildResult(&cfg, reports, finalGlobal, wall, nil)
	if err != nil {
		return nil, err
	}
	res.Transport = "chan"
	return res, nil
}
