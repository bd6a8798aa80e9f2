package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/metrics"
	"disttrain/internal/ps"
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

// writeCtl sends one control frame on the rendezvous connection.
func writeCtl(c net.Conn, f *xport.Frame) error {
	c.SetWriteDeadline(time.Now().Add(recvTimeout))
	return xport.WriteFrame(c, f)
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

// coordinate runs the coordinator's side of a live run on an established
// listener, which it owns from here and closes when the run ends: open the PS
// endpoint (centralized algorithms), run one event loop from the first accept
// to the last DONE (see runState.step), start the PS at START, and collect
// the workers' final reports into a Result.
func coordinate(cfg *core.Config, ln net.Listener, o *Options) (*Result, error) {
	// The rendezvous span covers admission through the START broadcast: the
	// coordinator's setup cost before any training happens.
	spRdv := o.tracer.StartSpan("rendezvous", "coord", coordPid, 0)
	st := newRunState(cfg, o.tracer, time.Now())
	// Closing the listener closes every connection; the readers drain, and a
	// late REJOIN goes unanswered.
	defer func() { ln.Close(); st.drain() }()

	// The PS takes the mesh's last rank, listening on the listener's host,
	// the wildcard included.
	var srv *xport.TCPNet
	if cfg.Algo.Centralized() {
		host, _, _ := net.SplitHostPort(ln.Addr().String())
		var err error
		if srv, err = o.listen(cfg.Workers, meshSize(cfg), net.JoinHostPort(host, "0")); err != nil {
			return nil, fmt.Errorf("live: PS listen: %w", err)
		}
		defer srv.Close()
		_, st.psPort, _ = net.SplitHostPort(srv.Addr())
		o.metrics.registerStats(cfg.Workers, srv.Stats)
	}
	o.metrics.registerCoord(st.snapshot)

	// The PS serves from START on a goroutine of its own, and global is what
	// it ends on. A decentralized run has none: its global model is the
	// replica average.
	var global []float32
	served := make(chan error, 1)
	runErr := st.loop(ln, func() {
		spRdv.End()
		if srv != nil {
			srv.SetPeers(st.mesh)
			go func() {
				sv := newServer(cfg, srv, o)
				err := ps.Serve(sv.shard, sv)
				global = sv.global.Params
				served <- err
			}()
		}
	})
	wall := time.Since(st.start).Seconds()
	if runErr != nil {
		return nil, runErr
	}
	if srv != nil {
		if err := <-served; err != nil { // before global: the server goroutine writes it
			return nil, fmt.Errorf("live: server (%s): %w", cfg.Algo, err)
		}
	}

	// BYE releases the tail loops (gossip drains, passive serves) of the
	// workers that finished on a live connection; only after it may they
	// close their endpoints. A written-off rank has no connection to release.
	for r, c := range st.conns {
		if c != nil && st.done[r] {
			_ = writeCtl(c, &xport.Frame{Kind: kindBye})
		}
	}

	// Every rank is done, so nothing writes the reports any more.
	transport := "tcp"
	if o.chanNet != nil {
		transport = "chan"
	}
	res, err := buildResult(cfg, transport, st.reports, global, wall, srv)
	if err != nil {
		return nil, err
	}
	res.Deaths, res.Rejoins = st.deaths.Load(), st.rejoins.Load()
	return res, nil
}

// runState is the coordinator's view of a run. One goroutine owns it — the
// loop's, which applies every event through step; the counters are atomics
// only so a metrics scrape can read them.
type runState struct {
	ch     *chaos // nil without a crash schedule
	fp     string
	psPort string        // "" for a decentralized run or a pipe mesh
	mesh   []string      // the mesh addresses from PEERS on; the PS's stays ""
	lease  time.Time     // the last admission frame's time
	start  time.Time     // START, the wall-clock epoch; zero while admitting
	tr     *trace.Tracer // nil when tracing is off; all calls nil-safe

	conns   []net.Conn    // current control conn per rank; nil before HELLO and while dead
	done    []bool        // reported, or written off
	owe     []uint16      // the admission frame a rank owes next: HELLO, ADDR, READY or none (0)
	addrs   []xport.Frame // each rank's ADDR, judged when the last is in
	beat    []time.Time
	reports []doneInfo

	finished, deaths, rejoins atomic.Int64

	inbox
}

// newRunState is cfg's coordinator at now, before any worker connects.
func newRunState(cfg *core.Config, tr *trace.Tracer, now time.Time) *runState {
	W := cfg.Workers
	st := &runState{
		ch: newChaos(cfg), fp: fingerprint(cfg), mesh: make([]string, meshSize(cfg)), lease: now, tr: tr,
		conns: make([]net.Conn, W), owe: make([]uint16, W), addrs: make([]xport.Frame, W),
		beat: make([]time.Time, W), reports: make([]doneInfo, W), done: make([]bool, W),
		inbox: inbox{events: make(chan event)},
	}
	for r := range st.owe {
		st.owe[r] = kindHello
	}
	return st
}

// event is what a loop learns: a tick (conn nil), a frame f read on conn,
// first if it is conn's first, or the error err that ended its reads — or,
// on a worker, the end of an incarnation's training (trained), err its error.
type event struct {
	conn    net.Conn
	first   bool
	trained bool
	f       xport.Frame
	err     error
}

// inbox is where a loop's inputs post their events: the readers of its
// control connections, the coordinator's acceptor, a worker's training.
type inbox struct {
	events  chan event
	posters sync.WaitGroup
}

// spawn runs fn on a goroutine of its own, as one of the inbox's posters.
func (in *inbox) spawn(fn func()) {
	in.posters.Add(1)
	go func() {
		defer in.posters.Done()
		fn()
	}()
}

// read posts every frame that arrives on c, the first due within
// recvTimeout, then the error that ends its reads.
func (in *inbox) read(c net.Conn) {
	for first, d := true, recvTimeout; ; first, d = false, ctlTimeout {
		c.SetReadDeadline(time.Now().Add(d))
		f, err := xport.ReadFrame(c, xport.MaxFrameBytes)
		in.events <- event{conn: c, first: first, f: f, err: err}
		if err != nil {
			return
		}
	}
}

// drain discards events until the last poster has returned; its inputs must
// be ending.
func (in *inbox) drain() {
	go func() {
		in.posters.Wait()
		close(in.events)
	}()
	for range in.events {
	}
}

// snapshot is the coordinator's contribution to a metrics scrape.
func (st *runState) snapshot() coordSnapshot {
	return coordSnapshot{deaths: st.deaths.Load(), rejoins: st.rejoins.Load(), done: st.finished.Load()}
}

// loop starts the acceptor, then applies its readers' events and a
// once-a-second tick through step until the run ends; started runs after
// the step that sends START.
func (st *runState) loop(ln net.Listener, started func()) error {
	st.spawn(func() { st.accept(ln) })
	t := time.NewTicker(time.Second)
	defer t.Stop()
	for {
		ev, now := event{}, time.Time{}
		select {
		case ev = <-st.events:
			now = time.Now()
		case now = <-t.C:
		}
		admitting := st.start.IsZero()
		if end, err := st.step(ev, now); end || err != nil {
			return err
		}
		if admitting && !st.start.IsZero() {
			started()
		}
	}
}

// accept gives every connection that arrives on ln a reader, until ln
// closes; then it closes them all, so no read outlives the run.
func (st *runState) accept(ln net.Listener) {
	var accepted []net.Conn
	for {
		c, err := ln.Accept()
		if err != nil {
			break
		}
		accepted = append(accepted, c)
		st.spawn(func() { st.read(c) })
	}
	for _, c := range accepted {
		c.Close()
	}
}

// step applies one event at time now: the coordinator's every rule, from
// the first HELLO to the last DONE. It reports whether the run has ended —
// every rank done or written off — or the error that fails it, naming the
// rank. Order alone settles every race: a frame or error on a connection
// that is not a rank's current one (refused, superseded, or done) changes
// nothing.
func (st *runState) step(ev event, now time.Time) (end bool, err error) {
	admitting := st.start.IsZero()
	switch {
	case ev.conn == nil:
		return false, st.checkLeases(now)
	case ev.first && admitting:
		return false, st.hello(ev, now)
	case ev.first:
		return st.rejoin(ev, now), nil
	}
	rank := slices.Index(st.conns, ev.conn)
	switch {
	case rank < 0 || st.done[rank]:
		return false, nil
	case ev.err != nil:
		return st.lost(rank)
	case admitting:
		return false, st.admit(rank, ev.f, now)
	}
	switch ev.f.Kind {
	case kindHeartbeat:
		st.tr.Mark("heartbeat", "coord", coordPid, rank)
		st.beat[rank] = now
		return false, nil
	case kindDone:
		rep, err := parseDone(ev.f)
		if err != nil {
			return false, fmt.Errorf("live: worker %d %w", rank, err)
		}
		return st.finish(rank, rep), nil
	}
	return false, fmt.Errorf("live: worker %d: unexpected control kind %d", rank, ev.f.Kind)
}

// hello admits a connection before START by its first frame: a HELLO with
// this run's fingerprint takes the next rank and ASSIGN, one with another
// fails the run, and anything else (a HELLO past the W-th too) is closed.
func (st *runState) hello(ev event, now time.Time) error {
	rank := slices.Index(st.owe, kindHello)
	if ev.err != nil || ev.f.Kind != kindHello || rank < 0 {
		ev.conn.Close()
		return nil
	}
	if string(ev.f.Data) != st.fp {
		return fmt.Errorf("live: worker %d config fingerprint %q does not match coordinator's %q",
			rank, ev.f.Data, st.fp)
	}
	st.conns[rank], st.owe[rank], st.lease = ev.conn, kindAddr, now
	if err := writeCtl(ev.conn, &xport.Frame{Kind: kindAssign, From: int32(rank), Clock: int32(len(st.mesh))}); err != nil {
		return fmt.Errorf("live: assign worker %d: %w", rank, err)
	}
	return nil
}

// admit takes the frame rank owes before START. When the last ADDR is in,
// the ADDRs are judged in rank order and every rank is sent PEERS; when the
// last READY is, START is stamped now and sent.
func (st *runState) admit(rank int, f xport.Frame, now time.Time) error {
	if k := st.owe[rank]; k == 0 || f.Kind != k {
		return fmt.Errorf("live: worker %d: unexpected control kind %d", rank, f.Kind)
	}
	st.owe[rank], st.lease = 0, now
	if f.Kind == kindAddr {
		st.addrs[rank] = f
	}
	if st.owing() >= 0 {
		return nil
	}
	next := xport.Frame{Kind: kindStart}
	if f.Kind == kindAddr {
		next.Kind = kindPeers
		for r, a := range st.addrs {
			var err error
			if st.mesh[r], err = parseAddr(a, r); err != nil {
				return fmt.Errorf("live: addr from worker %d: %w", r, err)
			}
		}
	} else {
		st.start = now
	}
	for r, c := range st.conns {
		if next.Kind == kindPeers {
			st.owe[r], next.Data = kindReady, st.table(c)
		}
		if err := writeCtl(c, &next); err != nil {
			return fmt.Errorf("live: worker %d: control kind %d: %w", r, next.Kind, err)
		}
	}
	return nil
}

// owing is the lowest rank admission waits on a frame from, -1 for none.
func (st *runState) owing() int {
	return slices.IndexFunc(st.owe, func(k uint16) bool { return k != 0 })
}

// table is the peer table of a PEERS or REJOIN-OK written on c, which names
// the PS at the host the worker reached.
func (st *runState) table(c net.Conn) []byte {
	t := slices.Clone(st.mesh)
	if st.psPort != "" {
		host, _, _ := net.SplitHostPort(c.LocalAddr().String())
		t[len(t)-1] = net.JoinHostPort(host, st.psPort)
	}
	return []byte(strings.Join(t, ","))
}

// finish records rank's report and reports whether it was the last one.
func (st *runState) finish(rank int, rep doneInfo) bool {
	st.reports[rank], st.done[rank] = rep, true
	return st.finished.Add(1) == int64(len(st.done))
}

// lost classifies rank's dropped control connection: a failure (always
// before START), or a scheduled death — awaiting a rejoin, or written off,
// with the iterations its schedule let it run, when it never revives it.
func (st *runState) lost(rank int) (bool, error) {
	st.conns[rank].Close()
	st.conns[rank] = nil
	if st.start.IsZero() || !st.ch.hasCrash(rank) {
		return false, fmt.Errorf("live: worker %d control connection lost", rank)
	}
	st.deaths.Add(1)
	st.tr.Mark("death", "coord", coordPid, rank)
	if st.ch.finishes(rank) {
		return false, nil
	}
	return st.finish(rank, doneInfo{iters: st.ch.ran(rank, st.ch.cfg.Iters)}), nil
}

// rejoin re-admits a restarted worker after START by its first frame, a
// REJOIN with this run's fingerprint naming an unfinished rank the schedule
// crashes; anything else is closed unanswered. A live connection it
// supersedes is that incarnation's death. REJOIN-OK carries the peer table
// and the seconds since START, to re-anchor the worker's faults.
func (st *runState) rejoin(ev event, now time.Time) (end bool) {
	c, f := ev.conn, ev.f
	rank := int(f.From)
	if ev.err != nil || f.Kind != kindRejoin || rank < 0 || rank >= len(st.conns) ||
		string(f.Data) != st.fp || st.done[rank] || !st.ch.hasCrash(rank) {
		c.Close()
		return false
	}
	sp := st.tr.StartSpan("rejoin", "coord", coordPid, rank)
	defer sp.End()
	if old := st.conns[rank]; old != nil {
		old.Close()
		st.deaths.Add(1)
		st.tr.Mark("death", "coord", coordPid, rank)
	}
	st.conns[rank], st.beat[rank] = c, now
	st.rejoins.Add(1)
	err := writeCtl(c, &xport.Frame{Kind: kindRejoinOK, Aux: now.Sub(st.start).Seconds(), Data: st.table(c)})
	if err != nil {
		end, _ = st.lost(rank) // a crashed rank: never an error
	}
	return end
}

// checkLeases fails the run when a lease has lapsed at now. Until START that
// is the admission lease: recvTimeout without an admission frame. After it,
// under a crash schedule, a rank's: the heartbeat period plus slack, plus the
// largest scheduled restart delay while a crashed rank is disconnected.
func (st *runState) checkLeases(now time.Time) error {
	if silent := now.Sub(st.lease); st.start.IsZero() && silent > recvTimeout {
		r, W := st.owing(), len(st.conns)
		if st.owe[r] == kindHello {
			return fmt.Errorf("live: worker %d never connected (%d of %d workers missing) after %.1fs of silence",
				r, W-r, W, silent.Seconds())
		}
		return fmt.Errorf("live: worker %d owes %s after %.1fs of silence",
			r, map[uint16]string{kindAddr: "ADDR", kindReady: "READY"}[st.owe[r]], silent.Seconds())
	}
	if st.ch == nil || st.start.IsZero() {
		return nil
	}
	for r, last := range st.beat {
		if st.done[r] {
			continue
		}
		if last.IsZero() {
			last = st.start
		}
		allow := leaseTimeout
		if st.conns[r] == nil && st.ch.hasCrash(r) {
			allow += time.Duration(st.ch.maxRestart(r)*float64(time.Second)) + leaseTimeout
		}
		if now.Sub(last) > allow {
			return fmt.Errorf("live: worker %d lease expired after %.1fs of silence", r, now.Sub(last).Seconds())
		}
	}
	return nil
}

// buildResult assembles the Result from the workers' reports and the final
// PS parameters (nil for a decentralized run) and the counters of the PS
// endpoint srv (nil without one), and evaluates the
// global model through the simulator's own core.GlobalParams and RealConfig.TestErr, on a
// model that reads the vector it evaluates where it lies.
func buildResult(cfg *core.Config, transport string, reports []doneInfo, finalGlobal []float32, wall float64, srv *xport.TCPNet) (*Result, error) {
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
	if srv != nil {
		res.Net.Add(srv.Stats())
	}
	if cnt > 0 {
		res.FinalTrainLoss = loss / float64(cnt)
	}
	if wall > 0 {
		res.Throughput = float64(totalIters*cfg.Real.Batch) / wall
	}
	// A decentralized run is evaluated on the replicas' average, written into
	// a lent vector that goes back once TestErr is done with it.
	var avg []float32
	if finalGlobal == nil {
		avg = xport.NewVec(model.NumParams())
	}
	if global := core.GlobalParams(avg, finalGlobal, res.WorkerParams); global != nil {
		res.FinalTestAcc = 1 - cfg.Real.TestErr(model, global)
	}
	(&xport.Frame{Vec: avg}).Release()
	return res, nil
}
