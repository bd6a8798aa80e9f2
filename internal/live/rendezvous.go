package live

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
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
	c.SetReadDeadline(time.Now().Add(ctlTimeout))
	f, err := xport.ReadFrame(c, xport.MaxFrameBytes)
	if err != nil {
		return f, err
	}
	if f.Kind != want {
		if f.Kind == kindDone && f.Seg < 0 {
			// A worker's failure report: surface its error.
			return f, fmt.Errorf("worker %d failed: %s", f.From, f.Data)
		}
		return f, fmt.Errorf("control frame kind %d, want %d", f.Kind, want)
	}
	return f, nil
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

// doneStats is the stats payload of a DONE frame: the transport counters
// accumulated across every incarnation of the worker, plus how many
// checkpoint restores its restarts performed. The embedded struct keeps the
// JSON flat, so pre-chaos payloads decode unchanged.
type doneStats struct {
	xport.Stats
	Restores int64 `json:"restores,omitempty"`
}

// add folds one endpoint's counters into the accumulated stats.
func (d *doneStats) add(s xport.Stats) {
	d.FramesSent += s.FramesSent
	d.FramesRecv += s.FramesRecv
	d.BytesSent += s.BytesSent
	d.BytesRecv += s.BytesRecv
	d.Redials += s.Redials
	d.Kills += s.Kills
	d.DelayNanos += s.DelayNanos
	d.Partitioned += s.Partitioned
}

// doneInfo is what one worker's DONE frame reports.
type doneInfo struct {
	iters    int
	loss     float64
	lossInit bool
	params   []float32
	stats    doneStats
}

// coordinate runs the coordinator's side of a live run on an established
// listener: accept W workers, assign ranks, exchange mesh addresses,
// barrier everyone, host the PS (centralized algorithms), and collect the
// workers' final reports into a Result. Under a crash schedule it
// additionally runs per-rank lease monitors, a rejoin acceptor, and a
// watchdog, so scheduled deaths are distinguished from wedged runs.
func coordinate(cfg *core.Config, ln net.Listener, o *Options) (*Result, error) {
	W := cfg.Workers
	n := meshSize(cfg)
	fp := fingerprint(cfg)
	ch := newChaos(cfg)

	// The rendezvous span covers admission through the START broadcast: the
	// coordinator's setup cost before any training happens.
	spRdv := o.tracer.StartSpan("rendezvous", "coord", coordPid, 0)

	conns := make([]net.Conn, 0, W)
	defer func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}()

	// Admit W workers in connection order; the accept order is the rank
	// order.
	type deadliner interface{ SetDeadline(time.Time) error }
	if d, ok := ln.(deadliner); ok {
		d.SetDeadline(time.Now().Add(recvTimeout))
	}
	for rank := 0; rank < W; rank++ {
		c, err := ln.Accept()
		if err != nil {
			return nil, fmt.Errorf("live: accept worker %d: %w", rank, err)
		}
		conns = append(conns, c)
		hello, err := readCtl(c, kindHello)
		if err != nil {
			return nil, fmt.Errorf("live: hello from worker %d: %w", rank, err)
		}
		if string(hello.Data) != fp {
			return nil, fmt.Errorf("live: worker %d config fingerprint %q does not match coordinator's %q",
				rank, hello.Data, fp)
		}
		if err := writeCtl(c, &xport.Frame{Kind: kindAssign, From: int32(rank),
			Clock: int32(n), Seg: int32(serverRank(cfg))}); err != nil {
			return nil, fmt.Errorf("live: assign worker %d: %w", rank, err)
		}
	}

	// Collect every worker's mesh address, then open the PS endpoint on the
	// coordinator's own host.
	addrs := make([]string, n)
	for rank, c := range conns {
		f, err := readCtl(c, kindAddr)
		if err != nil {
			return nil, fmt.Errorf("live: addr from worker %d: %w", rank, err)
		}
		addrs[f.From] = string(f.Data)
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

	peerList := strings.Join(addrs, ",")
	for rank, c := range conns {
		if err := writeCtl(c, &xport.Frame{Kind: kindPeers, Data: []byte(peerList)}); err != nil {
			return nil, fmt.Errorf("live: peers to worker %d: %w", rank, err)
		}
	}
	for rank, c := range conns {
		if _, err := readCtl(c, kindReady); err != nil {
			return nil, fmt.Errorf("live: ready from worker %d: %w", rank, err)
		}
	}

	// START is the wall-clock epoch: training time and fault windows are
	// measured from here.
	start := time.Now()
	for rank, c := range conns {
		if err := writeCtl(c, &xport.Frame{Kind: kindStart}); err != nil {
			return nil, fmt.Errorf("live: start to worker %d: %w", rank, err)
		}
	}
	spRdv.End()

	var finalGlobal []float32
	srvDone := make(chan error, 1)
	if srvNet != nil {
		go func() {
			sv := newServer(cfg, srvNet, o)
			params, err := sv.run()
			finalGlobal = params
			srvDone <- err
		}()
	} else {
		srvDone <- nil
	}

	if ch != nil {
		return coordinateChaos(cfg, ln, ch, conns, fp, peerList, start, srvDone, &finalGlobal, srvNet, o)
	}

	var doneCount atomic.Int64
	o.metrics.registerCoord(func() coordSnapshot {
		return coordSnapshot{done: doneCount.Load()}
	})

	// Collect DONEs. Reading the connections in rank order still waits for
	// all of them; arrival order does not matter here.
	reports := make([]doneInfo, W)
	for rank, c := range conns {
		f, err := readCtl(c, kindDone)
		if err != nil {
			return nil, fmt.Errorf("live: done from worker %d: %w", rank, err)
		}
		doneCount.Add(1)
		var st doneStats
		if len(f.Data) > 0 {
			if err := json.Unmarshal(f.Data, &st); err != nil {
				return nil, fmt.Errorf("live: worker %d stats: %w", rank, err)
			}
		}
		reports[int(f.From)] = doneInfo{
			iters:    int(f.Clock),
			loss:     f.Aux,
			lossInit: f.Seg == 1,
			params:   f.Vec,
			stats:    st,
		}
	}
	wall := time.Since(start).Seconds()

	if err := <-srvDone; err != nil {
		return nil, err
	}

	// BYE releases the workers' tail loops (gossip drains, passive serves);
	// only after it may they close their endpoints.
	for rank, c := range conns {
		if err := writeCtl(c, &xport.Frame{Kind: kindBye}); err != nil {
			return nil, fmt.Errorf("live: bye to worker %d: %w", rank, err)
		}
	}

	return buildResult(cfg, reports, finalGlobal, wall, srvNet)
}

// runState is the coordinator's shared view of a chaos run: the current
// control connection, lease, and progress per rank, which ranks have
// reported (or been written off), and the death/rejoin counters.
type runState struct {
	cfg      *core.Config
	ch       *chaos
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
			if f.Seg < 0 {
				st.fail(fmt.Errorf("live: worker %d failed: %s", rank, f.Data))
				return
			}
			var ds doneStats
			if len(f.Data) > 0 {
				if err := json.Unmarshal(f.Data, &ds); err != nil {
					st.fail(fmt.Errorf("live: worker %d stats: %w", rank, err))
					return
				}
			}
			st.mu.Lock()
			st.reports[rank] = doneInfo{iters: int(f.Clock), loss: f.Aux,
				lossInit: f.Seg == 1, params: f.Vec, stats: ds}
			st.done[rank] = true
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
	type deadliner interface{ SetDeadline(time.Time) error }
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
	if err := writeCtl(c, &xport.Frame{Kind: kindRejoinOK, Aux: elapsed,
		Data: []byte(st.peerList)}); err != nil {
		sp.End()
		st.onDisconnect(rank, c)
		return
	}
	sp.End()
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

// coordinateChaos is the post-START coordinator path for crash schedules:
// per-rank monitors collect DONEs and classify disconnects, the rejoin
// acceptor re-admits restarted workers, and the watchdog bounds silence.
func coordinateChaos(cfg *core.Config, ln net.Listener, ch *chaos, conns []net.Conn,
	fp, peerList string, start time.Time, srvDone chan error, finalGlobal *[]float32,
	srvNet *xport.TCPNet, o *Options) (*Result, error) {
	W := cfg.Workers
	st := &runState{
		cfg: cfg, ch: ch, fp: fp, peerList: peerList, start: start, tr: o.tracer,
		conns: conns, beat: make([]time.Time, W), iter: make([]int, W),
		reports: make([]doneInfo, W), done: make([]bool, W),
		doneCh: make(chan int, W), errCh: make(chan error, 1),
		quit: make(chan struct{}),
	}
	o.metrics.registerCoord(func() coordSnapshot {
		st.mu.Lock()
		defer st.mu.Unlock()
		var done int64
		for _, d := range st.done {
			if d {
				done++
			}
		}
		return coordSnapshot{deaths: st.deaths, rejoins: st.rejoins, done: done}
	})
	for r := 0; r < W; r++ {
		go st.monitor(r, conns[r])
	}
	go st.rejoinLoop(ln)
	go st.watchdog()

	finished := 0
	var runErr error
	for finished < W && runErr == nil {
		select {
		case <-st.doneCh:
			finished++
		case runErr = <-st.errCh:
		}
	}
	wall := time.Since(start).Seconds()
	close(st.quit)
	if runErr != nil {
		return nil, runErr
	}
	if err := <-srvDone; err != nil {
		return nil, err
	}

	st.mu.Lock()
	// BYE releases the tail loops of the workers that finished on a live
	// connection; written-off ranks have no connection to release.
	for r, c := range st.conns {
		if c != nil && st.done[r] {
			_ = writeCtl(c, &xport.Frame{Kind: kindBye})
		}
	}
	reports := append([]doneInfo(nil), st.reports...)
	deaths, rejoins := st.deaths, st.rejoins
	st.mu.Unlock()

	res, err := buildResult(cfg, reports, *finalGlobal, wall, srvNet)
	if err != nil {
		return nil, err
	}
	res.Deaths, res.Rejoins = deaths, rejoins
	return res, nil
}

// buildResult assembles the Result from the workers' reports and the final
// global parameters, and evaluates the final model exactly the way the
// simulator's evalGlobal does.
func buildResult(cfg *core.Config, reports []doneInfo, finalGlobal []float32, wall float64, srvNet *xport.TCPNet) (*Result, error) {
	res := &Result{Config: *cfg, Transport: "tcp", WallSec: wall}
	totalIters := 0
	var loss float64
	cnt := 0
	for _, rep := range reports {
		res.WorkerIters = append(res.WorkerIters, rep.iters)
		res.WorkerParams = append(res.WorkerParams, rep.params)
		totalIters += rep.iters
		if rep.lossInit {
			loss += rep.loss
			cnt++
		}
		res.Net.FramesSent += rep.stats.FramesSent
		res.Net.FramesRecv += rep.stats.FramesRecv
		res.Net.BytesSent += rep.stats.BytesSent
		res.Net.BytesRecv += rep.stats.BytesRecv
		res.Net.Redials += rep.stats.Redials
		res.Net.Kills += rep.stats.Kills
		res.Net.DelayNanos += rep.stats.DelayNanos
		res.Net.Partitioned += rep.stats.Partitioned
		res.Restores += rep.stats.Restores
	}
	if srvNet != nil {
		st := srvNet.Stats()
		res.Net.FramesSent += st.FramesSent
		res.Net.FramesRecv += st.FramesRecv
		res.Net.BytesSent += st.BytesSent
		res.Net.BytesRecv += st.BytesRecv
		res.Net.Redials += st.Redials
		res.Net.Kills += st.Kills
		res.Net.DelayNanos += st.DelayNanos
		res.Net.Partitioned += st.Partitioned
	}
	if cnt > 0 {
		res.FinalTrainLoss = loss / float64(cnt)
	}
	if wall > 0 {
		res.Throughput = float64(totalIters*cfg.Real.Batch) / wall
	}

	global := finalGlobal
	if global == nil {
		// Decentralized: the global model is the replica average, summed in
		// rank order then scaled — the simulator's globalParams.
		var out []float32
		cnt := 0
		for _, rep := range reports {
			if rep.params == nil {
				continue
			}
			if out == nil {
				out = make([]float32, len(rep.params))
			}
			for i, v := range rep.params {
				out[i] += v
			}
			cnt++
		}
		if cnt > 0 {
			inv := 1 / float32(cnt)
			for i := range out {
				out[i] *= inv
			}
		}
		global = out
	}
	res.FinalTestAcc = evalParams(cfg, global)
	return res, nil
}

// evalParams runs the simulator's final-evaluation recipe on a parameter
// vector: a model from the shared init stream, the test set capped at
// EvalMax, Evaluate's accuracy.
func evalParams(cfg *core.Config, params []float32) float64 {
	if params == nil {
		return 0
	}
	model := newEvalModel(cfg)
	model.SetFlatParams(params)
	test := cfg.Real.Test
	n := test.N()
	if cfg.Real.EvalMax > 0 && cfg.Real.EvalMax < n {
		n = cfg.Real.EvalMax
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	xb, yb := test.Gather(idx, nil, nil)
	_, acc := model.Evaluate(xb, yb)
	// The simulator reports FinalTestAcc as 1-TestErr with TestErr=1-acc;
	// 1-(1-acc) is not bitwise acc in float64, and live summaries must
	// match the simulator's reported numbers exactly, not just its params.
	return 1 - (1 - acc)
}
