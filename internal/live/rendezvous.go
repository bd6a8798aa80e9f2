package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/metrics"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// ctlTimeout bounds each control-plane read. Its ceiling is the full
// training run: a worker's DONE only arrives after its last iteration, and
// the BYE after the slowest worker's DONE.
const ctlTimeout = 10 * time.Minute

// heartbeatPeriod is how often a worker under a crash schedule renews its
// liveness lease with the coordinator; leaseTimeout is how long the
// coordinator tolerates silence from a connected worker before declaring
// the run wedged. A disconnected worker with a scheduled crash gets its
// largest scheduled restart delay on top.
const (
	heartbeatPeriod = 500 * time.Millisecond
	leaseTimeout    = 15 * time.Second
)

// ctlLink serializes writes on one control connection: the heartbeat
// goroutine and the training loop's DONE share the worker side of it.
type ctlLink struct {
	mu sync.Mutex
	c  net.Conn
}

func (l *ctlLink) write(f *xport.Frame) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return writeCtl(l.c, f)
}

// writeCtl sends one control frame on the rendezvous connection.
func writeCtl(c net.Conn, f *xport.Frame) error {
	c.SetWriteDeadline(time.Now().Add(recvTimeout))
	return xport.WriteFrame(c, f)
}

// readCtl reads one control frame, requiring the given kind.
func readCtl(c net.Conn, want uint16) (xport.Frame, error) {
	f, err := readAnyCtl(c, ctlTimeout)
	if err == nil && f.Kind != want {
		err = fmt.Errorf("control frame kind %d, want %d", f.Kind, want)
	}
	return f, err
}

// readAnyCtl reads one control frame of any kind with the given deadline.
func readAnyCtl(c net.Conn, d time.Duration) (xport.Frame, error) {
	c.SetReadDeadline(time.Now().Add(d))
	return xport.ReadFrame(c, xport.MaxFrameBytes)
}

// fingerprint digests the parts of the config every participant must agree
// on: whatever changes which frames travel or how they fold — the algorithm
// and its knobs, the optimizer and its learning-rate schedule, the
// collective (each is its own message pattern), the gradient codec, elastic
// membership, and what decides who talks to whom: the cluster's rank→machine
// layout (hierarchical and local-aggregation groups), the fault schedule (its
// crashes *are* the elastic membership function, quantized on the workload's
// nominal iteration time), local aggregation and the gossip overlay. The
// coordinator rejects a HELLO whose fingerprint differs from its own —
// catching a worker launched with a stale flag before it can skew or wedge
// the run.
func fingerprint(cfg *core.Config) string {
	var faults []fault.Event // each prints as its spec string
	if cfg.Faults != nil {
		faults = cfg.Faults.Events
	}
	return fmt.Sprintf("%s|w%d|i%d|s%d|m%v|wd%v|lr%v|st%d|tau%d|mr%v|gp%v|c%s|q8%v|f16%v|el%v|b%d|n%d|cl%dx%d|f%v@%v|la%v|ov%s/%d",
		cfg.Algo, cfg.Workers, cfg.Iters, cfg.Seed, cfg.Momentum, cfg.WeightDecay, cfg.LR,
		cfg.Staleness, cfg.Tau, cfg.MovingRate, cfg.GossipP, cfg.Collective,
		cfg.Quantize8, cfg.QuantizeF16, cfg.Elastic, cfg.Real.Batch, cfg.Real.Train.N(),
		cfg.Cluster.Machines, cfg.Cluster.WorkersPerMachine, faults, cfg.Workload.MeanIterSec(), cfg.LocalAgg,
		cfg.Overlay, cfg.OverlayDegree)
}

// The control payloads a peer supplies are parsed once, where they enter,
// and whatever does not fit this run is a pointed error: they name ranks and
// size the mesh, so none may reach an index or an allocation unchecked.

// parseAssign reads the worker's rank from ASSIGN, which must also carry the
// mesh size this config implies.
func parseAssign(cfg *core.Config, f xport.Frame) (int, error) {
	if f.From < 0 || int(f.From) >= cfg.Workers {
		return 0, fmt.Errorf("rank %d outside [0, %d)", f.From, cfg.Workers)
	}
	if n := meshSize(cfg); int(f.Clock) != n {
		return 0, fmt.Errorf("mesh size %d, this config needs %d", f.Clock, n)
	}
	return int(f.From), nil
}

// parseAddr reads the mesh address from the ADDR of the worker admitted as
// rank.
func parseAddr(f xport.Frame, rank int) (string, error) {
	if int(f.From) != rank {
		return "", fmt.Errorf("ADDR names rank %d on the connection of rank %d", f.From, rank)
	}
	if len(f.Data) == 0 || bytes.IndexByte(f.Data, ',') >= 0 {
		return "", fmt.Errorf("mesh address %q", f.Data)
	}
	return string(f.Data), nil
}

// parsePeers splits the peer table of a PEERS or REJOIN-OK: exactly n
// addresses, indexed by mesh rank.
func parsePeers(data []byte, n int) ([]string, error) {
	if got := bytes.Count(data, []byte{','}) + 1; got != n {
		return nil, fmt.Errorf("peer table of %d addresses, want %d", got, n)
	}
	return strings.Split(string(data), ","), nil
}

// doneStats is the stats payload of a DONE frame: the transport counters
// and the time breakdown accumulated across every incarnation of the worker,
// plus how many checkpoint restores its restarts performed. The embedded
// struct keeps the JSON flat, so pre-chaos payloads decode unchanged.
type doneStats struct {
	xport.Stats
	Restores  int64             `json:"restores,omitempty"`
	Breakdown metrics.Breakdown `json:"breakdown"`
}

// doneInfo is what one worker's DONE frame reports.
type doneInfo struct {
	iters    int
	loss     float64
	lossInit bool
	params   []float32
	stats    doneStats
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

// frame encodes the report as rank's DONE; parseDone is its inverse.
func (d *doneInfo) frame(rank int) *xport.Frame {
	f := &xport.Frame{Kind: kindDone, From: int32(rank), Clock: int32(d.iters), Aux: d.loss, Vec: d.params}
	if d.lossInit {
		f.Seg = 1
	}
	f.Data, _ = json.Marshal(d.stats)
	return f
}

// parseDone decodes a DONE frame. A negative tag carries the worker's error
// text instead of a report.
func parseDone(f xport.Frame) (doneInfo, error) {
	if f.Seg < 0 {
		return doneInfo{}, fmt.Errorf("failed: %s", f.Data)
	}
	d := doneInfo{iters: int(f.Clock), loss: f.Aux, lossInit: f.Seg == 1, params: f.Vec}
	if len(f.Data) > 0 {
		if err := json.Unmarshal(f.Data, &d.stats); err != nil {
			return doneInfo{}, fmt.Errorf("stats: %w", err)
		}
	}
	return d, nil
}

// deadliner is a listener whose Accept takes a deadline (net.TCPListener).
type deadliner interface{ SetDeadline(time.Time) error }

// coordinate runs the coordinator's side of a live run on an established
// listener: accept W workers, assign ranks, exchange mesh addresses,
// barrier everyone, host the PS (centralized algorithms), and collect the
// workers' final reports into a Result. After START one path watches every
// run: a monitor per rank collects its DONE and classifies a lost
// connection; a crash schedule adds only what hangs on heartbeats — the
// rejoin acceptor and the lease watchdog — so scheduled deaths are
// distinguished from wedged runs.
func coordinate(cfg *core.Config, ln net.Listener, o *Options) (*Result, error) {
	W := cfg.Workers
	n := meshSize(cfg)
	st := &runState{
		ch: newChaos(cfg), fp: fingerprint(cfg), tr: o.tracer,
		conns: make([]net.Conn, W), beat: make([]time.Time, W), iter: make([]int, W),
		reports: make([]doneInfo, W), done: make([]bool, W),
		doneCh: make(chan int, W), errCh: make(chan error, 1),
		quit: make(chan struct{}),
	}
	defer func() {
		st.mu.Lock()
		defer st.mu.Unlock()
		for _, c := range st.conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	// The rendezvous span covers admission through the START broadcast: the
	// coordinator's setup cost before any training happens.
	spRdv := o.tracer.StartSpan("rendezvous", "coord", coordPid, 0)

	// Admit W workers in connection order; the accept order is the rank
	// order.
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(time.Now().Add(recvTimeout))
	}
	for rank := 0; rank < W; rank++ {
		c, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("live: accept worker %d: %w", rank, err)
		}
		st.conns[rank] = c
		hello, err := readCtl(c, kindHello)
		if err != nil {
			return nil, fmt.Errorf("live: hello from worker %d: %w", rank, err)
		}
		if string(hello.Data) != st.fp {
			return nil, fmt.Errorf("live: worker %d config fingerprint %q does not match coordinator's %q",
				rank, hello.Data, st.fp)
		}
		if err := writeCtl(c, &xport.Frame{Kind: kindAssign, From: int32(rank),
			Clock: int32(n), Seg: int32(serverRank(cfg))}); err != nil {
			return nil, fmt.Errorf("live: assign worker %d: %w", rank, err)
		}
	}

	// Collect every worker's mesh address, then open the PS endpoint on the
	// coordinator's own host.
	addrs := make([]string, n)
	for rank, c := range st.conns {
		f, err := readCtl(c, kindAddr)
		if err == nil {
			addrs[rank], err = parseAddr(f, rank)
		}
		if err != nil {
			return nil, fmt.Errorf("live: addr from worker %d: %w", rank, err)
		}
	}
	var srvNet *xport.TCPNet
	if cfg.Algo.Centralized() {
		host, _, err := net.SplitHostPort(ln.Addr().String())
		if err != nil || host == "" || host == "::" || host == "0.0.0.0" {
			host = "127.0.0.1"
		}
		srvNet, err = xport.ListenTCP(W, n, net.JoinHostPort(host, "0"))
		if err != nil {
			return nil, fmt.Errorf("live: PS listen: %w", err)
		}
		defer srvNet.Close()
		addrs[W] = srvNet.Addr()
		srvNet.SetPeers(addrs)
		o.metrics.registerStats(W, srvNet.Stats)
	}

	st.peerList = strings.Join(addrs, ",")
	for rank, c := range st.conns {
		if err := writeCtl(c, &xport.Frame{Kind: kindPeers, Data: []byte(st.peerList)}); err != nil {
			return nil, fmt.Errorf("live: peers to worker %d: %w", rank, err)
		}
	}
	for rank, c := range st.conns {
		if _, err := readCtl(c, kindReady); err != nil {
			return nil, fmt.Errorf("live: ready from worker %d: %w", rank, err)
		}
	}

	// START is the wall-clock epoch: training time and fault windows are
	// measured from here.
	st.start = time.Now()
	for rank, c := range st.conns {
		if err := writeCtl(c, &xport.Frame{Kind: kindStart}); err != nil {
			return nil, fmt.Errorf("live: start to worker %d: %w", rank, err)
		}
	}
	spRdv.End()

	waitServer := noServer
	if srvNet != nil {
		waitServer = startServer(cfg, srvNet, o)
	}
	o.metrics.registerCoord(st.snapshot)
	for rank, c := range st.conns {
		go st.monitor(rank, c)
	}
	if st.ch != nil {
		go st.rejoinLoop(ln)
		go st.watchdog()
	}

	var runErr error
	for finished := 0; finished < W && runErr == nil; {
		select {
		case <-st.doneCh:
			finished++
		case runErr = <-st.errCh:
		}
	}
	wall := time.Since(st.start).Seconds()
	close(st.quit)
	if runErr != nil {
		return nil, runErr
	}
	finalGlobal, err := waitServer()
	if err != nil {
		return nil, err
	}

	st.mu.Lock()
	// BYE releases the tail loops (gossip drains, passive serves) of the
	// workers that finished on a live connection; only after it may they
	// close their endpoints. A written-off rank has no connection to release.
	for r, c := range st.conns {
		if c != nil && st.done[r] {
			_ = writeCtl(c, &xport.Frame{Kind: kindBye})
		}
	}
	deaths, rejoins := st.deaths, st.rejoins
	st.mu.Unlock()

	// Every rank is done, so nothing writes the reports any more.
	res, err := buildResult(cfg, "tcp", st.reports, finalGlobal, wall, srvNet)
	if err != nil {
		return nil, err
	}
	res.Deaths, res.Rejoins = deaths, rejoins
	return res, nil
}

// runState is the coordinator's shared view of a run after START: the
// current control connection, lease, and progress per rank, which ranks have
// reported (or been written off), and the death/rejoin counters.
type runState struct {
	ch       *chaos // nil without a crash schedule
	fp       string
	peerList string
	start    time.Time
	tr       *trace.Tracer // nil when tracing is off; all calls nil-safe

	mu      sync.Mutex
	conns   []net.Conn // current control conn per rank; nil while dead
	beat    []time.Time
	iter    []int
	reports []doneInfo
	done    []bool
	deaths  int64
	rejoins int64

	doneCh chan int
	errCh  chan error
	quit   chan struct{}
}

func (st *runState) fail(err error) {
	select {
	case st.errCh <- err:
	default:
	}
}

// snapshot is the coordinator's contribution to a metrics scrape.
func (st *runState) snapshot() coordSnapshot {
	st.mu.Lock()
	defer st.mu.Unlock()
	cs := coordSnapshot{deaths: st.deaths, rejoins: st.rejoins}
	for _, d := range st.done {
		if d {
			cs.done++
		}
	}
	return cs
}

// monitor owns one rank's control connection: it folds heartbeats into the
// lease state, records the DONE report, and routes disconnects to the
// death/rejoin machinery.
func (st *runState) monitor(rank int, c net.Conn) {
	for {
		f, err := readAnyCtl(c, ctlTimeout)
		if err != nil {
			st.onDisconnect(rank, c)
			return
		}
		switch f.Kind {
		case kindHeartbeat:
			st.tr.Mark("heartbeat", "coord", coordPid, rank)
			st.mu.Lock()
			if st.conns[rank] == c {
				st.beat[rank] = time.Now()
				if int(f.Clock) > st.iter[rank] {
					st.iter[rank] = int(f.Clock)
				}
			}
			st.mu.Unlock()
		case kindDone:
			rep, err := parseDone(f)
			if err != nil {
				st.fail(fmt.Errorf("live: worker %d %w", rank, err))
				return
			}
			st.mu.Lock()
			st.reports[rank], st.done[rank] = rep, true
			st.mu.Unlock()
			st.doneCh <- rank
			return
		default:
			st.fail(fmt.Errorf("live: worker %d: unexpected control kind %d", rank, f.Kind))
			return
		}
	}
}

// onDisconnect classifies a dropped control connection: a scheduled death
// (awaiting rejoin, or written off when the schedule never revives the
// rank) or a genuine failure.
func (st *runState) onDisconnect(rank int, c net.Conn) {
	st.mu.Lock()
	if st.conns[rank] != c || st.done[rank] {
		// Superseded by a rejoin, or the post-DONE teardown: not a death.
		st.mu.Unlock()
		return
	}
	st.conns[rank] = nil
	if !st.ch.hasCrash(rank) {
		st.mu.Unlock()
		st.fail(fmt.Errorf("live: worker %d control connection lost", rank))
		return
	}
	st.deaths++
	st.tr.Mark("death", "coord", coordPid, rank)
	if !st.ch.finishes(rank) {
		// The schedule never revives this rank before the run ends:
		// synthesize its report from the last heartbeat so the run can
		// complete without it.
		st.reports[rank] = doneInfo{iters: st.iter[rank]}
		st.done[rank] = true
		st.mu.Unlock()
		st.doneCh <- rank
		return
	}
	st.mu.Unlock()
}

// rejoinLoop keeps accepting on the rendezvous listener after the START
// barrier; every connection must open with a REJOIN. It exits when the
// listener closes.
func (st *runState) rejoinLoop(ln net.Listener) {
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(time.Time{})
	}
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		go st.handleRejoin(c)
	}
}

// handleRejoin re-admits a restarted worker: verify its rank and config
// fingerprint, install the new control connection, and hand back the peer
// list plus the wall-clock offset so the worker re-anchors its fault plan.
func (st *runState) handleRejoin(c net.Conn) {
	f, err := readAnyCtl(c, recvTimeout)
	if err != nil || f.Kind != kindRejoin {
		c.Close()
		return
	}
	rank := int(f.From)
	st.mu.Lock()
	if rank < 0 || rank >= len(st.conns) || string(f.Data) != st.fp ||
		st.done[rank] || !st.ch.hasCrash(rank) {
		st.mu.Unlock()
		c.Close()
		return
	}
	sp := st.tr.StartSpan("rejoin", "coord", coordPid, rank)
	if old := st.conns[rank]; old != nil {
		// The rejoin outran the old monitor's read error: count the death
		// here and supersede the stale connection (its monitor stands down
		// when it sees conns[rank] changed).
		st.deaths++
		old.Close()
	}
	st.conns[rank] = c
	st.beat[rank] = time.Now()
	st.rejoins++
	elapsed := time.Since(st.start).Seconds()
	st.mu.Unlock()
	err = writeCtl(c, &xport.Frame{Kind: kindRejoinOK, Aux: elapsed, Data: []byte(st.peerList)})
	sp.End()
	if err != nil {
		st.onDisconnect(rank, c)
		return
	}
	go st.monitor(rank, c)
}

// watchdog fails the run when a rank goes silent past its lease: the
// heartbeat period plus slack for a connected worker, plus the largest
// scheduled restart delay while a crashed worker is disconnected.
func (st *runState) watchdog() {
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		select {
		case <-st.quit:
			return
		case <-t.C:
		}
		now := time.Now()
		st.mu.Lock()
		for r := 0; r < len(st.conns); r++ {
			if st.done[r] {
				continue
			}
			last := st.beat[r]
			if last.IsZero() {
				last = st.start
			}
			allow := leaseTimeout
			if st.conns[r] == nil && st.ch.hasCrash(r) {
				allow += time.Duration(st.ch.maxRestart(r)*float64(time.Second)) + leaseTimeout
			}
			if now.Sub(last) > allow {
				st.mu.Unlock()
				st.fail(fmt.Errorf("live: worker %d lease expired after %.1fs of silence", r, now.Sub(last).Seconds()))
				return
			}
		}
		st.mu.Unlock()
	}
}

// buildResult assembles the Result from the workers' reports and the final
// PS parameters (nil for a decentralized run), and evaluates the global model
// through the simulator's own core.GlobalParams and RealConfig.TestErr.
func buildResult(cfg *core.Config, transport string, reports []doneInfo, finalGlobal []float32, wall float64, srvNet *xport.TCPNet) (*Result, error) {
	res := &Result{Config: *cfg, Transport: transport, WallSec: wall}
	model := core.EvalModel(cfg)
	ranks := make([]metrics.Worker, len(reports))
	totalIters := 0
	var loss float64
	cnt := 0
	for r, rep := range reports {
		if rep.params != nil && len(rep.params) != model.NumParams() {
			return nil, fmt.Errorf("live: worker %d reported %d parameters, the model has %d",
				r, len(rep.params), model.NumParams())
		}
		res.WorkerIters = append(res.WorkerIters, rep.iters)
		res.WorkerParams = append(res.WorkerParams, rep.params)
		totalIters += rep.iters
		if rep.lossInit {
			loss += rep.loss
			cnt++
		}
		res.Net.Add(rep.stats.Stats)
		res.Restores += rep.stats.Restores
		ranks[r].Breakdown = rep.stats.Breakdown
	}
	res.Breakdown = (&metrics.Collector{Workers: ranks}).MeanBreakdown()
	if srvNet != nil {
		res.Net.Add(srvNet.Stats())
	}
	if cnt > 0 {
		res.FinalTrainLoss = loss / float64(cnt)
	}
	if wall > 0 {
		res.Throughput = float64(totalIters*cfg.Real.Batch) / wall
	}
	if global := core.GlobalParams(finalGlobal, res.WorkerParams); global != nil {
		res.FinalTestAcc = 1 - cfg.Real.TestErr(model, global)
	}
	return res, nil
}
