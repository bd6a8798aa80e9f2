package core

import (
	"fmt"
	"math"
	"sort"

	"disttrain/internal/comm"
	"disttrain/internal/des"
	"disttrain/internal/grad"
	"disttrain/internal/metrics"
	"disttrain/internal/ps"
	"disttrain/internal/simnet"
)

// simEnv is the simulator's Env: worker w's view of the simulated world from
// its des process p. Everything that is a *model* lives here and in the exp
// methods below — virtual compute time and the pool future, paper-scale wire
// sizes, the sharded send with wait-free BP and DGC, AR-SGD's two-bucket
// overlap, the time breakdown, and which waits fault mode bounds by a
// timeout — so the loops in loops.go stay protocol only. No simulated step
// fails softly: a violated invariant panics and Run reports it.
type simEnv struct {
	x *exp
	p *des.Proc
	w int

	// The pass Compute started: the compute-time multiplier it drew and
	// whether the send that follows paces the backward pass.
	jitter  float64
	overlap bool

	// stash separates AllReduce rounds when a fast peer's next-round chunk
	// can overtake the current round's traffic (see AllReduce).
	stash []simnet.Msg
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
			e := &simEnv{x: x, p: p, w: w}
			if err := WorkerLoop(e, cfg, w, x.reps[w], x.streams[w], x.overlay); err != nil {
				panic(err)
			}
			x.finish(w)
		})
	}
}

func (e *simEnv) Gate(it int) (int, bool, error) {
	next, ok := e.x.gate(e.p, e.w, it)
	return next, ok, nil
}

// Members is every worker, or under elastic fault injection the round's
// survivors. Worker w's node ID is w, so ranks address the network directly.
func (e *simEnv) Members(it int) ([]int, int) {
	if e.x.inj == nil || !e.x.cfg.Elastic {
		return e.x.workerNode, e.w
	}
	return e.x.inj.AliveNodes(it, e.w)
}

func (e *simEnv) Compute(overlap bool) {
	_, e.jitter = e.x.computePhase(e.p, e.w, overlap)
	e.overlap = overlap
}

func (e *simEnv) Grad() []float32 { return e.x.reps[e.w].takeGrads() }

func (e *simEnv) Done(it int) error {
	e.x.iterDone(e.w, it)
	return nil
}

// AllReduce runs the run's collective over the round's members. With
// wait-free BP the gradient is reduced in two buckets: the output-side half
// of the vector is all-reduced while the backward pass of the input-side
// half is still running — the bucketing strategy real DDP stacks use.
func (e *simEnv) AllReduce(it int, nodes []int, self int) ([]float32, error) {
	x, p, cfg := e.x, e.p, e.x.cfg
	bd := &x.col.Workers[e.w].Breakdown
	// With fault injection the ring membership can change between rounds, so
	// a fast peer's next-round chunk may overtake the current round's
	// traffic; the per-round Clock tag plus this stash keeps every round's
	// messages separated. The topology-aware collectives need it even with
	// fixed membership: their multi-phase patterns let a finished peer's
	// next-round traffic arrive while this rank still drains the current
	// round.
	stash := &e.stash
	if x.inj == nil && !topoCollective(cfg.Collective) {
		stash = nil // strict fixed-membership discipline
	}

	// The join is deferred into the branches below: under wait-free BP the
	// first half-backward sleep elapses before the gradient is needed,
	// stretching the overlap window.
	var agg []float32
	join := func() {
		if g := e.Grad(); g != nil {
			agg = append([]float32(nil), g...)
			// Quantized AllReduce: each worker's own contribution is
			// quantized once before entering the collective — the live
			// runtime ships own-contribution chunks in codec form and
			// reconstructs with the same formula, so sim and live observe
			// identical inputs. Partial sums stay dense on both paths.
			if cfg.Quantize8 {
				grad.QuantizeRoundTrip(agg)
			} else if cfg.QuantizeF16 {
				grad.QuantizeF16RoundTrip(agg)
			}
		}
	}
	// The sim cost model keeps dense per-hop Bytes even when the input is
	// quantized: only own-contribution chunks (the ring's first
	// reduce-scatter hop, tree leaf pushes, …) carry codec payloads on the
	// live path — partial sums travel dense — so halving every hop would
	// overstate the savings. Real wire savings are measured on the live PS
	// path. The wait beyond the wire time is global aggregation.
	reduce := func(vec []float32, vlen int) {
		t0 := p.Now()
		_, wire := collective(p, comm.CollectiveOpts{
			Op: x.plan.Op, Net: x.net, Nodes: nodes, Self: self,
			Vec: vec, VirtualLen: vlen, Bytes: x.bytesFor(vlen),
			Kind: KindAllReduce, Clock: it, Stash: stash,
			Groups: x.plan.Groups, TorusRows: x.plan.TorusRows, TorusCols: x.plan.TorusCols})
		bd.Add(metrics.Network, wire)
		bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
	}

	if !cfg.WaitFreeBP || x.vecLen == 1 {
		join()
		reduce(agg, x.vecLen)
		return agg, nil
	}
	// First half of the backward pass produces the output-side gradients...
	half := x.vecLen / 2
	bwd := x.bwdTotal(e.jitter)
	c0 := p.Now()
	p.Sleep(bwd / 2)
	bd.Add(metrics.Compute, p.Now()-c0)
	join()

	// ...whose AllReduce overlaps the second half of the backward pass: if
	// the reduce finishes first, the worker still owes the remaining
	// backward time.
	t0 := p.Now()
	var hi, lo []float32
	if agg != nil {
		hi, lo = agg[half:], agg[:half]
	}
	reduce(hi, x.vecLen-half)
	if rem := bwd/2 - (p.Now() - t0); rem > 0 {
		p.Sleep(rem)
		bd.Add(metrics.Compute, rem)
	}
	reduce(lo, half)
	return agg, nil
}

// GatherSum is local aggregation's intra-machine gather. The leader books its
// wire time and the wait for its members, and notes when it finished so that
// the members can split their own wait (see Bcast).
func (e *simEnv) GatherSum(it int, group []int, self int, vec []float32) error {
	x, p := e.x, e.p
	t0 := p.Now()
	_, wire := collective(p, comm.CollectiveOpts{
		Op: comm.OpGather, Net: x.net, Nodes: group, Self: self,
		Vec: vec, Bytes: x.fullBytes(), Kind: KindLocalGather})
	if self == 0 {
		bd := &x.col.Workers[e.w].Breakdown
		bd.Add(metrics.Network, wire)
		bd.Add(metrics.LocalAgg, p.Now()-t0-wire)
		x.gatherDoneAt[x.cfg.Cluster.MachineOfWorker(e.w)] = p.Now()
	}
	return nil
}

// Bcast relays the fresh parameters from the machine leader to its members.
func (e *simEnv) Bcast(it int, group []int, self int, params []float32) error {
	x, p := e.x, e.p
	if self == 0 {
		collective(p, comm.CollectiveOpts{
			Op: comm.OpBroadcast, Net: x.net, Nodes: group, Self: self,
			Vec: params, Bytes: x.fullBytes(), Kind: KindLocalBcast})
		return nil
	}
	t0 := p.Now()
	m := x.inbox(e.w).Recv(p)
	if m.Kind != KindLocalBcast {
		panic(fmt.Sprintf("bsp member: unexpected kind %d", m.Kind))
	}
	bd := &x.col.Workers[e.w].Breakdown
	bd.Add(metrics.Network, m.WireSec)
	// Split the wait: until the leader finished gathering it was local
	// aggregation; the rest was the global round.
	localWait := x.gatherDoneAt[x.cfg.Cluster.MachineOfWorker(e.w)] - t0
	if localWait < 0 {
		localWait = 0
	}
	if rest := p.Now() - t0 - m.WireSec; rest > 0 {
		if localWait > rest {
			localWait = rest
		}
		bd.Add(metrics.LocalAgg, localWait)
		bd.Add(metrics.GlobalAgg, rest-localWait)
	}
	x.reps[e.w].SetParams(m.Vec)
	return nil
}

// Exchange sends vec's message to every shard and awaits their answers. A
// barrier-bound worker (BSP, and SSP parked behind the clock service) blocks
// in faithful mode and gives up on answers lost to drop or partition faults
// only in elastic mode; a dropped message must never wedge an asynchronous
// worker (ASP, EASGD), which under any fault schedule gives up after the
// timeout and trains on with the stale shard parameters.
func (e *simEnv) Exchange(kind ps.Kind, it int, vec []float32, ack func(int)) error {
	x, cfg := e.x, e.x.cfg
	want := kindParams
	switch kind {
	case ps.Grad:
		x.sendGrads(e.p, e.w, it, vec, e.jitter, e.overlap)
	case ps.Pull:
		for s := range x.assign {
			x.net.Send(simnet.Msg{From: e.w, To: x.psNode[s], Kind: kindPull, Clock: it, Bytes: 16})
		}
	case ps.Push:
		want = kindEASGDReply
		for s := range x.assign {
			// Each shard moves its ranges of its own copy in place and
			// sends that copy back.
			x.net.Send(simnet.Msg{From: e.w, To: x.psNode[s], Kind: kindEASGDPush, Clock: it,
				Seg: s, Bytes: x.shardBytes(s), Vec: append([]float32(nil), vec...)})
		}
	}
	timed := x.inj != nil && (cfg.Elastic || cfg.Algo == ASP || kind == ps.Push)
	x.awaitShards(e.p, e.w, want, timed, ack)
	return nil
}

func (e *simEnv) Update(it int, vec []float32) error {
	e.x.sendGrads(e.p, e.w, it, vec, e.jitter, e.overlap)
	return nil
}

// awaitShards is the worker's half of a PS exchange: block until every shard
// has answered with a message of kind want, scatter each answer's ranges into
// the replica's parameters and book the wait as network and global-
// aggregation time. When timed, a wait longer than BarrierTimeoutSec gives up
// and keeps the stale ranges of the shards that did not answer, so a dropped
// request or reply cannot wedge the worker. Acks arriving in between go to
// ack (SSP; nil means none are expected).
func (x *exp) awaitShards(p *des.Proc, w, want int, timed bool, ack func(minClock int)) {
	inbox := x.inbox(w)
	t0 := p.Now()
	var wire des.Time
	fresh := x.reps[w].Params()
	for recv := 0; recv < len(x.assign); {
		var m simnet.Msg
		if timed {
			var ok bool
			if m, ok = inbox.RecvTimeout(p, x.cfg.BarrierTimeoutSec); !ok {
				x.col.Faults.Timeouts++
				break
			}
		} else {
			m = inbox.Recv(p)
		}
		switch {
		case m.Kind == want:
			wire += m.WireSec
			if m.Vec != nil {
				for _, r := range x.assign[m.Seg] {
					copy(fresh[r.Off:r.Off+r.Len], m.Vec[r.Off:r.Off+r.Len])
				}
			}
			recv++
		case m.Kind == kindAck && ack != nil:
			ack(m.Clock)
		default:
			panic(fmt.Sprintf("%s worker: unexpected kind %d", x.cfg.Algo, m.Kind))
		}
	}
	bd := &x.col.Workers[w].Breakdown
	bd.Add(metrics.Network, wire)
	bd.Add(metrics.GlobalAgg, p.Now()-t0-wire)
	x.reps[w].SetParams(fresh)
}

// arrived pops the next message already in the worker's inbox, which must be
// of the given kind.
func (e *simEnv) arrived(kind int) (simnet.Msg, bool) {
	for {
		m, ok := e.x.inbox(e.w).TryRecv()
		if ok && m.Kind == kindParams && e.x.inj != nil {
			// A reply released after this worker's pull timed out; its
			// refresh was already given up on.
			continue
		}
		if ok && m.Kind != kind {
			panic(fmt.Sprintf("%s worker: unexpected kind %d", e.x.cfg.Algo, m.Kind))
		}
		return m, ok
	}
}

func (e *simEnv) Acks(ack func(int)) error {
	for m, ok := e.arrived(kindAck); ok; m, ok = e.arrived(kindAck) {
		ack(m.Clock)
	}
	return nil
}

func (e *simEnv) FromPeers(merge func([]float32, float64)) error {
	for m, ok := e.arrived(KindGossip); ok; m, ok = e.arrived(KindGossip) {
		merge(m.Vec, m.Aux)
	}
	return nil
}

func (e *simEnv) ToPeer(to, it int, aux float64, vec []float32) error {
	e.x.net.Send(simnet.Msg{From: e.w, To: to, Kind: KindGossip, Clock: it, Aux: aux,
		Bytes: e.x.fullBytes(), Vec: vec})
	return nil
}

// Reachable drops the partners that are dead or partitioned away right now.
func (e *simEnv) Reachable(base []int) []int {
	x := e.x
	if x.inj == nil {
		return base
	}
	now := e.p.Now()
	myM := x.cfg.Cluster.MachineOfWorker(e.w)
	var cands []int
	for _, pe := range base {
		if !x.inj.DeadAt(pe, now) && !x.inj.Partitioned(now, myM, x.cfg.Cluster.MachineOfWorker(pe)) {
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

// computePhase advances virtual time by one jittered iteration and issues
// the real gradient computation. The numeric work is submitted to the
// compute pool *before* the virtual-time sleep, so while this process
// sleeps, other simulated workers' passes run concurrently on real cores;
// the returned gradFuture joins the result where the algorithm first
// consumes the gradient. When overlap is true (wait-free BP and the caller
// will invoke sendGrads next) only the forward time is slept here —
// sendGrads interleaves the backward time with the per-shard sends.
// Iteration bookkeeping (iter counter, spread, breakdown, trace spans)
// stays on the engine thread at the post-sleep point, exactly where the
// old synchronous path did it, so metrics are pool-size-independent.
func (x *exp) computePhase(p *des.Proc, w int, overlap bool) (*gradFuture, float64) {
	wl := x.cfg.Workload
	j := wl.SampleMult(x.streams[w].Jitter)
	if x.inj != nil {
		j *= x.inj.ComputeMult(w, p.Now())
	}
	mean := wl.MeanIterSec()
	start := p.Now()
	x.reps[w].beginCompute(x.pool)
	if overlap {
		fwd := mean / (1 + wl.BwdMult) * j
		p.Sleep(fwd)
	} else {
		p.Sleep(mean * j)
	}
	x.reps[w].iter++
	x.col.Workers[w].Breakdown.Add(metrics.Compute, p.Now()-start)
	if x.cfg.Tracer != nil {
		x.cfg.Tracer.Span("compute", "worker", start, p.Now(),
			x.cfg.Cluster.MachineOfWorker(w), w)
	}
	x.noteIterSpread()
	return &gradFuture{rep: x.reps[w]}, j
}

// gradFuture hands an algorithm driver its iteration's gradient. get joins
// the in-flight pass (nil in cost-only mode); the call site is the fixed
// event-trace point where the overlap window ends.
type gradFuture struct{ rep *Replica }

func (g *gradFuture) get() []float32 { return g.rep.takeGrads() }

// noteIterSpread records the instantaneous gap between the fastest and
// slowest worker's iteration counters — the staleness the asynchronous
// algorithms admit and SSP bounds.
func (x *exp) noteIterSpread() {
	min, max := x.reps[0].iter, x.reps[0].iter
	for _, r := range x.reps[1:] {
		if r.iter < min {
			min = r.iter
		}
		if r.iter > max {
			max = r.iter
		}
	}
	if s := max - min; s > x.col.MaxSpread {
		x.col.MaxSpread = s
	}
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
	wl := x.cfg.Workload
	totalBwd := wl.MeanIterSec() * wl.BwdMult / (1 + wl.BwdMult) * jitter
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

// sendGrads transmits worker w's gradient to every PS shard, honoring
// wait-free BP (which interleaves the backward sleep with per-shard sends,
// ordered by when each shard's layers finish in the backward pass) and DGC
// (which compresses the payload and shrinks wire bytes). jitter is the
// compute-time multiplier from computePhase, used to pace the backward
// sleeps under wait-free BP.
// wfbp controls whether this send path applies the wait-free-BP
// choreography; callers disable it when the backward pass already completed
// (e.g. BSP leaders that gathered machine-local gradients first).
func (x *exp) sendGrads(p *des.Proc, w int, clock int, grads []float32, jitter float64, wfbp bool) {
	cfg := x.cfg

	// DGC: compress once over the full vector; per-shard messages carry the
	// slice of sparse entries that falls in the shard's ranges.
	var sparse grad.Sparse
	kind := kindGrad
	ratio := 1.0
	if cfg.DGC != nil {
		if x.dgc != nil {
			sparse = x.dgc[w].Compress(grads)
			ratio = float64(len(sparse.Idx)) / float64(x.vecLen)
		} else {
			ratio = costOnlyDGCRatio(cfg.DGC, x.dgcIter[w])
		}
		x.dgcIter[w]++
		kind = kindSparseGrad
	}

	// Gradient quantization (extension): apply the codec's round-trip loss
	// once and shrink every shard message to its wire footprint. Layered on
	// DGC the codec compresses the surviving sparse values (the quantization
	// error is not fed back into DGC residuals — it models what the receiver
	// reconstructs); alone it compresses the dense vector.
	quant := cfg.Quantize8 || cfg.QuantizeF16
	roundTrip := grad.QuantizeRoundTrip
	if cfg.QuantizeF16 {
		roundTrip = grad.QuantizeF16RoundTrip
	}
	if quant {
		if kind == kindSparseGrad {
			if x.dgc != nil && len(sparse.Val) > 0 {
				qv := append([]float32(nil), sparse.Val...)
				roundTrip(qv)
				sparse.Val = qv
			}
		} else if grads != nil {
			qg := append([]float32(nil), grads...)
			roundTrip(qg)
			grads = qg
		}
	}

	// Split the sparse vector across shards in ONE pass via the locator —
	// probing every shard's range list per entry is O(shards·nnz) and
	// dominated setup at 256+ shards.
	var spIdx [][]int32
	var spVal [][]float32
	if kind == kindSparseGrad && x.dgc != nil {
		spIdx = make([][]int32, len(x.assign))
		spVal = make([][]float32, len(x.assign))
		for j, i := range sparse.Idx {
			if s := x.loc.Shard(int(i)); s >= 0 {
				spIdx[s] = append(spIdx[s], i)
				spVal[s] = append(spVal[s], sparse.Val[j])
			}
		}
	}

	// Dense payloads alias ONE shared copy: every shard reads only its own
	// (disjoint) ranges and never mutates, so per-shard full-vector copies
	// would cost O(shards·vecLen) for nothing. The copy isolates receivers
	// from the caller's reuse of grads.
	var dense []float32
	if kind == kindGrad && grads != nil {
		dense = append([]float32(nil), grads...)
	}

	var avail []des.Time
	if wfbp {
		avail = x.bwdAvailability(jitter)
	}
	bwdStart := p.Now()
	slept := des.Time(0)
	order := shardOrder(avail, len(x.assign))
	for _, s := range order {
		if wfbp {
			if d := avail[s] - slept; d > 0 {
				p.Sleep(d)
				slept = avail[s]
			}
		}
		msg := simnet.Msg{From: x.workerNode[w], To: x.psNode[s], Kind: kind, Clock: clock, Seg: s}
		if kind == kindSparseGrad {
			entry := 8.0 // 4 B index + 4 B float32 value, vs 4 B/element dense
			if quant {
				if cfg.Quantize8 {
					entry = 5 // 4 B index + 1 B int8 value (scale amortized)
				} else {
					entry = 6 // 4 B index + 2 B half value
				}
			}
			msg.Bytes = int64(float64(x.shardBytes(s)) * ratio * entry / 4)
			if msg.Bytes < 8 {
				msg.Bytes = 8
			}
			if x.dgc != nil {
				msg.SparseIdx = spIdx[s]
				msg.Vec = spVal[s]
			}
		} else {
			msg.Bytes = x.shardBytes(s)
			if quant {
				if cfg.Quantize8 {
					msg.Bytes = msg.Bytes/4 + 4
				} else {
					msg.Bytes = msg.Bytes / 2
				}
			}
			msg.Vec = dense // full vector; shard reads its ranges
		}
		x.net.Send(msg)
	}
	if wfbp {
		if d := x.bwdTotal(jitter) - slept; d > 0 {
			p.Sleep(d)
		}
		x.col.Workers[w].Breakdown.Add(metrics.Compute, p.Now()-bwdStart)
	}
}

// shardOrder returns shard indices ordered by availability (ascending); if
// avail is nil, natural order.
func shardOrder(avail []des.Time, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	if avail == nil {
		return order
	}
	// Stable so ties keep natural shard order — determinism matters, and the
	// previous insertion sort was O(shards²) per send at 256+ shards.
	sort.SliceStable(order, func(i, j int) bool { return avail[order[i]] < avail[order[j]] })
	return order
}

// costOnlyDGCRatio mirrors grad.Compressor.CurrentRatio for cost-only runs
// that track only the warm-up iteration count.
func costOnlyDGCRatio(cfg *grad.DGCConfig, iter int) float64 {
	if cfg.WarmupIters <= 0 || iter >= cfg.WarmupIters {
		return cfg.Ratio
	}
	return math.Pow(cfg.Ratio, float64(iter)/float64(cfg.WarmupIters))
}

// gate is called at the top of every worker iteration loop with the next
// iteration number. It polls ctx, then consults the fault schedule: a
// worker entering a dead window either sleeps out its restart delay and
// resumes at the first alive iteration (returned so the caller can skip
// ahead), or — with no restart, or none before the run ends — is done for
// good (ok = false; the caller should fall through to its finish path).
//
// Under the faithful (non-elastic) synchronous algorithms a crash stalls the
// whole system instead: nobody advances past the barrier, so a restarted
// worker reruns the iteration it died at, no iterations are lost, and only a
// crash without restart terminates the worker. Elastic runs exclude dead
// ranks and skip their lost iterations like everyone else.
func (x *exp) gate(p *des.Proc, w, it int) (int, bool) {
	if x.ctx != nil {
		select {
		case <-x.ctx.Done():
			x.canceled = true
			return it, false
		default:
		}
	}
	if x.inj == nil || it < x.syncFrom[w] || x.inj.AliveAtIter(w, it) {
		return it, true
	}
	stall := x.cfg.Algo.Synchronous() && !x.cfg.Elastic
	x.col.Faults.Crashes++
	delay := x.inj.RestartDelay(w, it)
	x.crashLog = append(x.crashLog, crashRec{worker: w, at: p.Now(), restart: delay})
	next := x.inj.NextAliveIter(w, it)
	if next == 0 || !stall && next > x.cfg.Iters {
		x.col.Faults.LostIters += x.cfg.Iters - it + 1
		return it, false
	}
	if stall {
		x.syncFrom[w] = next // the window [it, next) is served; rerun it late
		next = it
	}
	x.col.Faults.LostIters += next - it
	p.Sleep(delay)
	x.col.Faults.Restarts++
	x.restarted[w] = true
	return next, true
}

// iterDone is the end-of-iteration bookkeeping shared by every algorithm.
func (x *exp) iterDone(w, iter int) {
	if x.restarted != nil && x.restarted[w] {
		x.col.Faults.RecoveredIters++
	}
	x.maybeEval(w, iter)
}

// finish records completion for worker w.
func (x *exp) finish(w int) {
	x.col.Workers[w].Iters = x.reps[w].iter
	x.col.Workers[w].FinishedAt = x.eng.Now()
}
