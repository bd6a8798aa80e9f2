package core

import (
	"fmt"
	"sort"

	"disttrain/internal/des"
	"disttrain/internal/metrics"
	"disttrain/internal/simnet"
)

// simEnv is the simulator's Env: worker w's view of the simulated world from
// its des process p. It holds the *model* only — virtual compute time and the
// pool future, paper-scale wire sizes, wait-free BP's pacing of the shards'
// gradient messages and of AR-SGD's two buckets, the time breakdown, and the
// fault oracle: how long a Bounded wait lasts and who is dead — so the loops
// in loops.go and the message protocol in protocol.go, the parameter-server
// requests and the collectives included, are written once for both runtimes.
// No simulated step fails softly: a violated invariant panics and Run
// reports it.
type simEnv struct {
	x *exp
	p *des.Proc
	w int
	l *Ledger // the worker's, or its second thread's

	// The pass Compute started: the compute-time multiplier it drew and
	// whether the send that follows paces the backward pass; halfAt is when
	// Ready saw its first half through.
	jitter  float64
	overlap bool
	halfAt  float64

	// The gradient request in flight: the private copy its dense messages
	// share, and the messages that wait for the backward pass (pace).
	dense []float32
	paced []simnet.Msg

	// held is the message the last Recv returned, freed at the next.
	held *Msg
}

// spawnWorkers starts one process per worker running the algorithm's loop
// over a simEnv, after the PS shards of the centralized algorithms.
func (x *exp) spawnWorkers() {
	cfg := x.cfg
	if cfg.Algo.Centralized() {
		x.spawnShards()
	}
	for w := 0; w < cfg.Workers; w++ {
		w := w
		x.eng.Spawn(fmt.Sprintf("%s-worker%d", cfg.Algo, w), func(p *des.Proc) {
			e := &simEnv{x: x, p: p, w: w, l: NewLedger(&x.col.Workers[w].Breakdown, cfg.Tracer,
				x.eng.Now, cfg.Cluster.MachineOfWorker(w), w)}
			if err := WorkerLoop(e, cfg, w, x.reps[w], x.streams[w], x.overlay); err != nil {
				panic(err)
			}
			x.col.Workers[w].Iters = x.reps[w].iter
			x.col.Workers[w].FinishedAt = x.eng.Now()
		})
	}
}

// Members is every worker, or under elastic fault injection the round's
// survivors. Worker w's node ID is w, so ranks address the network directly.
func (e *simEnv) Members(it int) ([]int, int) {
	if e.x.inj == nil || !e.x.cfg.Elastic {
		return e.x.workerNode, e.w
	}
	return e.x.inj.AliveNodes(it, e.w)
}

func (e *simEnv) Grad() []float32 { return e.x.reps[e.w].takeGrads() }

// Done is the end-of-iteration bookkeeping shared by every algorithm.
func (e *simEnv) Done(it int) error {
	if e.x.restarted != nil && e.x.restarted[e.w] {
		e.x.col.Faults.RecoveredIters++
	}
	e.x.maybeEval(e.w, it)
	return nil
}

// Ready paces AR-SGD's wait-free BP (see allReduce): the first half of the
// backward pass produces the output-side bucket and is booked as compute; the
// input-side bucket then waits out whatever of the second half the first
// bucket's reduce did not cover. Without overlap Compute slept the whole pass.
func (e *simEnv) Ready(lo, hi int) {
	if !e.overlap {
		return
	}
	x, p := e.x, e.p
	bwd := x.bwdTotal(e.jitter)
	if lo > 0 {
		c0 := p.Now()
		p.Sleep(bwd / 2)
		e.l.Book(StepCompute, c0, p.Now(), 0)
		e.halfAt = p.Now()
		return
	}
	if rem := bwd/2 - (p.Now() - e.halfAt); rem > 0 {
		p.Sleep(rem)
		// Booked by hand: now − start would round the slept amount differently.
		x.col.Workers[e.w].Breakdown.Add(metrics.Compute, rem)
	}
}

// Send puts m on the simulated network in no virtual time, as a copy drawn
// from the run's free list that its receiver takes as it is. It is priced at
// the paper-scale size of a full vector — what every worker-to-worker
// message carries — or a collective's chunk at its share of the vector it
// was cut from; a parameter-server request's message goes through toShard. A
// chunk's payload is copied into a vector from the run's lender,
// isolating it in flight from the sender's next fold, and the receiver's
// Release gives it back; a whole vector is the sender's to give away, a
// Replica.Params copy. Either way the message holds what it carries (see
// exp.vecs). The codec's savings are not modelled here: only own-contribution
// chunks would carry them, and partial sums travel dense.
func (e *simEnv) Send(to int, m *Msg) (float64, error) {
	x := e.x
	b := x.msgs.New()
	*b = *m
	b.From = e.w
	if s := to - x.cfg.Workers; s >= 0 {
		e.toShard(s, b)
		return 0, nil
	}
	bytes := x.fullBytes()
	if m.Of > 0 {
		if bytes = x.bytesFor(m.Of); m.N != m.Of {
			bytes = bytes * int64(m.N) / int64(m.Of)
		}
		b.Vec = x.vecs.Clone(b.Vec)
	}
	x.vecs.Hold(b.Vec)
	x.net.Send(simnet.Msg{From: e.w, To: to, Kind: b.Kind, Bytes: bytes, Body: b})
	return 0, nil
}

// toShard sends shard s its message of a parameter-server request, priced at
// paper scale: a pull at 16 bytes; a pushed vector — the worker's copy,
// which every shard's message holds: each shard moves only its own ranges in
// and sends the copy back, and the worker reads only those ranges from each
// answer — and a dense gradient at the shard's bytes, or the gradient
// codec's share of them (int8 a byte an element plus the scale, f16 two
// bytes); a DGC gradient at the gradient's share of the shard's entries, 8
// bytes at least. A dense gradient's shards read one private copy from the
// run's lender, made as shard 0's message goes and back there once the
// last shard lets go: the caller's vector is the model's gradient store,
// which the next pass overwrites. After an overlapped Compute a gradient's
// messages wait for the last one and go out as the backward pass produces
// them (pace).
func (e *simEnv) toShard(s int, m *Msg) {
	x := e.x
	msg := simnet.Msg{From: e.w, To: x.psNode[s], Kind: m.Kind, Body: m}
	switch m.Kind {
	case kindPull:
		msg.Bytes = 16
	case kindEASGDPush:
		msg.Bytes = x.shardBytes(s)
	case kindGrad:
		msg.Bytes = x.shardBytes(s)
		switch {
		case x.cfg.Quantize8:
			msg.Bytes = msg.Bytes/4 + 4
		case x.cfg.QuantizeF16:
			msg.Bytes = msg.Bytes / 2
		}
		if s == 0 {
			e.dense = x.vecs.Clone(m.Vec)
		}
		if m.Vec = e.dense; s == len(x.assign)-1 {
			e.dense = nil
		}
	case kindSparseGrad:
		msg.Bytes = max(8, int64(float64(x.shardBytes(s))*m.Aux*x.dgcEntry/4))
	}
	if m.Kind != kindSparseGrad {
		x.vecs.Hold(m.Vec)
	}
	if !e.overlap || m.Kind != kindGrad && m.Kind != kindSparseGrad {
		x.net.Send(msg)
		return
	}
	if e.paced = append(e.paced, msg); len(e.paced) == len(x.assign) {
		e.pace()
	}
}

// pace sends a gradient's shard messages as the backward pass the overlapped
// Compute began reaches each shard's layers — shards in the order their
// layers finish, ties in shard order — sleeping out the pass in between and
// after it, and books the pass as compute.
func (e *simEnv) pace() {
	x, p := e.x, e.p
	avail := x.bwdAvailability(e.jitter)
	order := make([]int, len(avail))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(i, j int) bool { return avail[order[i]] < avail[order[j]] })
	bwdStart := p.Now()
	slept := des.Time(0)
	for _, s := range order {
		if d := avail[s] - slept; d > 0 {
			p.Sleep(d)
			slept = avail[s]
		}
		x.net.Send(e.paced[s])
	}
	clear(e.paced)
	e.paced = e.paced[:0]
	if d := x.bwdTotal(e.jitter) - slept; d > 0 {
		p.Sleep(d)
	}
	e.l.Book(StepCompute, bwdStart, p.Now(), 0)
}

// Recv is the worker's mailbox over its inbox: each arrival is the message
// its sender put on the network, with the transfer's wire time. A Bounded
// wait gives up after the barrier timeout, restarted by every arrival. A
// dead worker drops the exchange requests it takes: the requester's timeout
// absorbs the loss. What the last call returned goes back to the run's free
// list.
func (e *simEnv) Recv(kind, clock, seg int, wait Wait) (*Msg, bool, error) {
	x, inbox := e.x, e.x.net.Node(e.w).Inbox
	if e.held != nil {
		x.msgs.Free(e.held)
		e.held = nil
	}
	take := func() (*Msg, bool, error) {
		var m simnet.Msg
		ok := true
		switch wait {
		case Poll:
			m, ok = inbox.TryRecv()
		case Bounded:
			if m, ok = inbox.RecvTimeout(e.p, x.cfg.BarrierTimeoutSec); !ok {
				x.col.Faults.Timeouts++
			}
		default:
			m = inbox.Recv(e.p)
		}
		if !ok {
			return nil, false, nil
		}
		b := m.Body.(*Msg)
		b.Wire = m.WireSec
		return b, true, nil
	}
	for {
		m, ok, err := x.mail[e.w].Recv(kind, clock, seg, take)
		if !ok || m.Kind != KindExchangeReq || x.inj == nil || !x.inj.DeadAt(e.w, e.p.Now()) {
			e.held = m
			return m, ok, err
		}
		x.col.Faults.SkippedExchanges++
		x.vecs.Release(m.Vec)
		x.msgs.Free(m)
	}
}

// Release lets go of the hold the message that brought vec had on it: a
// vector from the run's lender goes back to it with its last hold, any other
// is ordinary garbage.
func (e *simEnv) Release(vec []float32) { e.x.vecs.Release(vec) }

func (e *simEnv) Ledger() *Ledger { return e.l }

// Reachable drops the partners that are dead or partitioned away right now.
// An AD-PSGD exchange holds its partner for a round trip, so its draw also
// drops a partner that is dead one mean iteration from now; a gossip push
// needs its target only on arrival.
func (e *simEnv) Reachable(base []int) []int {
	x := e.x
	if x.inj == nil {
		return base
	}
	now := e.p.Now()
	horizon := now
	if x.cfg.Algo == ADPSGD {
		horizon += x.inj.MeanIterSec()
	}
	myM := x.cfg.Cluster.MachineOfWorker(e.w)
	var cands []int
	for _, pe := range base {
		if !x.inj.DeadAt(pe, now) && !x.inj.DeadAt(pe, horizon) &&
			!x.inj.Partitioned(now, myM, x.cfg.Cluster.MachineOfWorker(pe)) {
			cands = append(cands, pe)
		}
	}
	if len(cands) == 0 {
		x.col.Faults.SkippedExchanges++
	} else if len(cands) < len(base) {
		x.col.Faults.Redraws++
	}
	return cands
}

// Go spawns the second thread as a process of its own. A worker's run ends
// with its compute thread, where finish books it: stop only closes the token
// stream, and the thread drains what it was handed on its own time.
func (e *simEnv) Go(name string, body func(Env, func() (int, bool)) error) (func(int), func() error) {
	x, w := e.x, e.w
	tokens := des.NewQueue[int](x.eng)
	x.eng.Spawn(fmt.Sprintf("%s-%s%d", x.cfg.Algo, name, w), func(p *des.Proc) {
		next := func() (int, bool) {
			it := tokens.Recv(p)
			return it, it >= 0
		}
		if err := body(&simEnv{x: x, p: p, w: w, l: e.l.Thread()}, next); err != nil {
			panic(err)
		}
	})
	return tokens.Push, func() error {
		tokens.Push(-1)
		return nil
	}
}

// Compute advances virtual time by one jittered iteration and issues the real
// gradient computation, keeping the compute-time multiplier it drew for the
// sends that pace against it. The numeric work is submitted to the compute
// pool *before* the virtual-time sleep, so while this process sleeps, other
// simulated workers' passes run concurrently on real cores; Grad joins the
// result where the algorithm first consumes the gradient. When overlap is
// true (wait-free BP) only the forward time is slept here: the backward time
// is slept out between the gradient's sends (pace, Ready). Iteration
// bookkeeping (iter counter, spread, the ledger) stays on the engine thread
// at the post-sleep point, so metrics are pool-size-independent.
func (e *simEnv) Compute(overlap bool) {
	x, p, w := e.x, e.p, e.w
	wl := x.cfg.Workload
	j := wl.SampleMult(x.streams[w].Jitter)
	if x.inj != nil {
		j *= x.inj.ComputeMult(w, p.Now())
	}
	mean := wl.MeanIterSec()
	start := p.Now()
	rep := x.reps[w]
	rep.beginCompute(x.pool)
	if overlap {
		p.Sleep(mean / (1 + wl.BwdMult) * j) // the forward pass
	} else {
		p.Sleep(mean * j)
	}
	if !rep.shared {
		rep.iter++ // a shared replica counted its pass where it ran it
	}
	e.l.Book(StepCompute, start, p.Now(), 0)
	x.noteIterSpread()
	e.jitter, e.overlap = j, overlap
}

// noteIterSpread records the instantaneous gap between the fastest and
// slowest worker's iteration counters — the staleness the asynchronous
// algorithms admit and SSP bounds.
func (x *exp) noteIterSpread() {
	lo, hi := x.reps[0].iter, x.reps[0].iter
	for _, r := range x.reps[1:] {
		lo, hi = min(lo, r.iter), max(hi, r.iter)
	}
	x.col.MaxSpread = max(x.col.MaxSpread, hi-lo)
}

// bwdTotal returns the jittered backward duration of one iteration.
func (x *exp) bwdTotal(jitter float64) des.Time {
	wl := x.cfg.Workload
	return wl.MeanIterSec() * wl.BwdMult / (1 + wl.BwdMult) * jitter
}

// bwdAvailability returns, per shard, the backward-pass completion offset
// (seconds from backward start, scaled by jitter) after which that shard's
// entire gradient is available. Backward runs from the last segment to the
// first, so a shard is available once backward has passed its lowest
// segment.
func (x *exp) bwdAvailability(jitter float64) []des.Time {
	totalBwd := x.bwdTotal(jitter)
	// Cumulative backward time by flat offset: segment i completes after
	// all segments j > i have been processed plus its own time. Segment
	// times are proportional to costs: in cost-only mode use per-layer
	// FLOPs; in real mode approximate by parameter share.
	segDone := make([]des.Time, len(x.segments)) // completion offset of segment i
	weights := make([]float64, len(x.segments))
	var totalW float64
	for i, s := range x.segments {
		var w float64
		if x.cfg.Real == nil {
			w = x.cfg.Workload.Profile.Layers[i].FwdFLOPs
		} else {
			w = float64(s.Len)
		}
		weights[i] = w
		totalW += w
	}
	acc := 0.0
	for i := len(x.segments) - 1; i >= 0; i-- {
		acc += weights[i] / totalW * totalBwd
		segDone[i] = acc
	}
	avail := make([]des.Time, len(x.assign))
	for s, ranges := range x.assign {
		var t des.Time
		for _, r := range ranges {
			// find segments overlapping this range; completion is the max.
			for i, seg := range x.segments {
				if seg.Off < r.Off+r.Len && seg.Off+seg.Len > r.Off {
					if segDone[i] > t {
						t = segDone[i]
					}
				}
			}
		}
		avail[s] = t
	}
	return avail
}

// Gate polls ctx, then consults the fault schedule: a worker entering a dead
// window either sleeps out its restart delay and resumes at the first alive
// iteration, or — with no restart, or none before the run ends — is done for
// good.
//
// Under the faithful (non-elastic) synchronous algorithms a crash stalls the
// whole system instead: nobody advances past the barrier, so a restarted
// worker reruns the iteration it died at, no iterations are lost, and only a
// crash without restart terminates the worker. Elastic runs exclude dead
// ranks and skip their lost iterations like everyone else.
func (e *simEnv) Gate(it int) (int, bool, error) {
	x, p, w := e.x, e.p, e.w
	if x.ctx != nil {
		select {
		case <-x.ctx.Done():
			x.canceled = true
			return it, false, nil
		default:
		}
	}
	if x.inj == nil || it < x.syncFrom[w] || x.inj.AliveAtIter(w, it) {
		return it, true, nil
	}
	stall := x.cfg.Algo.Synchronous() && !x.cfg.Elastic
	x.col.Faults.Crashes++
	delay := x.inj.RestartDelay(w, it)
	x.crashLog = append(x.crashLog, crashRec{worker: w, at: p.Now(), restart: delay})
	next := x.inj.NextAliveIter(w, it)
	if next == 0 || !stall && next > x.cfg.Iters {
		x.col.Faults.LostIters += x.cfg.Iters - it + 1
		return it, false, nil
	}
	if stall {
		x.syncFrom[w] = next // the window [it, next) is served; rerun it late
		next = it
	}
	x.col.Faults.LostIters += next - it
	p.Sleep(delay)
	x.col.Faults.Restarts++
	x.restarted[w] = true
	return next, true, nil
}
