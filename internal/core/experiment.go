package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"disttrain/internal/comm"
	"disttrain/internal/costmodel"
	"disttrain/internal/des"
	"disttrain/internal/fault"
	"disttrain/internal/grad"
	"disttrain/internal/metrics"
	"disttrain/internal/nn"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/sched"
	"disttrain/internal/simnet"
	"disttrain/internal/tensor"
	"disttrain/internal/topo"
)

// Message kinds on the simulated network. The parameter-server kinds are
// ps's own, so the shard driver converts with a cast.
const (
	kindGrad       = int(ps.Grad)
	kindSparseGrad = int(ps.SparseGrad)
	kindParams     = int(ps.Params)
	kindPull       = int(ps.Pull)
	kindAck        = int(ps.Ack)
	kindEASGDPush  = int(ps.Push)
	kindEASGDReply = int(ps.PushReply)
)

const (
	kindAllReduce = iota + 8
	kindGossip
	kindExchangeReq
	kindExchangeReply
	kindLocalGather
	kindLocalBcast
)

// exp is the shared state of one running experiment.
type exp struct {
	cfg *Config
	eng *des.Engine
	net *simnet.Net

	// pool runs the replicas' forward/backward passes on real cores while
	// their simulated processes sleep out virtual compute time. nil = inline.
	pool *sched.Pool

	// ctx is polled at iteration boundaries; cancellation aborts the run.
	ctx context.Context
	// canceled records that a worker observed ctx cancellation.
	canceled bool

	// inj evaluates the fault schedule; nil when no faults are configured.
	inj *fault.Injector
	// restarted marks workers that died and came back at least once.
	restarted []bool
	// syncFrom[w] is the first iteration whose crash window gateSync has not
	// yet served for worker w (faithful synchronous restart bookkeeping).
	syncFrom []int
	// crashLog records realized deaths for the fault trace spans.
	crashLog []crashRec

	workerNode []int // worker -> node ID
	psNode     []int // shard -> node ID

	assign ps.Assignment
	loc    *ps.Locator // index → shard, for one-pass sparse splitting
	global *ps.Global

	reps []*Replica
	col  *metrics.Collector

	// segments is the layer layout used for sharding and wait-free BP: the
	// real model's segments in real mode, the cost profile's otherwise.
	segments []nn.Segment
	// vecLen is the exchanged vector length (real param count, or the
	// profile's parameter count in cost-only mode).
	vecLen int
	// byteScale converts "actual params × 4 bytes" into paper-scale wire
	// bytes; 1 in cost-only mode, profileParams/actualParams in real mode.
	byteScale float64

	// streams are the per-worker RNG streams: Jitter samples compute time,
	// Algo drives algorithmic randomness (gossip choices, partner selection).
	streams []Streams

	// overlay, when non-nil, restricts gossip partner selection
	// (AD-PSGD/GoSGD) to a sparse seed-deterministic peer graph.
	overlay *topo.Overlay

	// compressors per worker when DGC is on (real mode only).
	dgc []*grad.Compressor
	// dgcIter tracks per-worker compression iterations in cost-only mode
	// (for the warm-up schedule).
	dgcIter []int

	// gatherDoneAt[machine] is the virtual time the machine leader finished
	// its local gather in the current BSP iteration; members use it to
	// split their wait into local vs global aggregation.
	gatherDoneAt []des.Time

	// evalModel is a scratch model used to evaluate global/average params
	// (real mode only).
	evalModel *nn.Model
}

// crashRec is one realized worker death, for trace spans.
type crashRec struct {
	worker  int
	at      float64
	restart float64 // 0 = permanent
}

// setup builds the simulated world for cfg. Call cfg.Validate() first.
func setup(cfg *Config) (*exp, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, fmt.Errorf("core: setup: %w", err)
	}
	if cfg.Workload.Profile == nil {
		return nil, fmt.Errorf("core: setup: missing workload profile")
	}
	if cfg.Workers < 1 || cfg.Iters < 1 {
		return nil, fmt.Errorf("core: setup: %d workers, %d iters", cfg.Workers, cfg.Iters)
	}
	x := &exp{cfg: cfg, eng: des.NewEngine()}
	x.net = simnet.New(x.eng, cfg.Cluster)
	if cfg.Tracer != nil {
		x.net.SetTracer(cfg.Tracer)
	}
	if !cfg.Faults.Empty() {
		x.inj = fault.NewInjector(cfg.Faults, cfg.Workers, cfg.Cluster.Machines,
			cfg.Workload.MeanIterSec(), cfg.Seed)
		x.net.SetFaults(x.inj)
		x.restarted = make([]bool, cfg.Workers)
		x.syncFrom = make([]int, cfg.Workers)
	}
	streams, overlayStream := DeriveStreams(cfg.Seed, cfg.Workers)
	x.streams = streams

	// Workers first so worker w has node ID w.
	for w := 0; w < cfg.Workers; w++ {
		x.workerNode = append(x.workerNode, x.net.AddNode(cfg.Cluster.MachineOfWorker(w)).ID)
	}

	// Gossip overlay: the generator is seeded once and shared read-only by
	// every worker.
	if cfg.Overlay != "" {
		seed := overlayStream.Uint64()
		var (
			ov  *topo.Overlay
			err error
		)
		switch cfg.Overlay {
		case "kregular":
			ov, err = topo.RandomRegular(cfg.Workers, cfg.OverlayDegree, seed)
		case "smallworld":
			chords := cfg.Workers * (cfg.OverlayDegree - 2) / 2
			ov, err = topo.SmallWorld(cfg.Workers, chords, seed)
		}
		if err != nil {
			panic(fmt.Sprintf("overlay: %v", err)) // Validate vetted feasibility
		}
		x.overlay = ov
	}

	// Replicas. Every worker's init stream is the same derivation, so all
	// workers start with identical weights, as the algorithms assume.
	x.reps = make([]*Replica, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		if cfg.Real != nil {
			x.reps[w] = NewReplica(w, cfg, x.streams[w])
		} else {
			x.reps[w] = newCostReplica()
		}
	}

	// Exchange-vector geometry.
	if cfg.Real != nil {
		m := x.reps[0].model
		x.segments = m.Segments()
		x.vecLen = m.NumParams()
		x.byteScale = float64(cfg.Workload.Profile.TotalBytes()) / float64(x.vecLen*costmodel.BytesPerParam)
	} else {
		x.segments = cfg.Workload.Profile.Segments()
		x.vecLen = int(cfg.Workload.Profile.TotalParams())
		x.byteScale = 1
	}

	// PS shards (centralized algorithms only).
	if cfg.Algo.Centralized() {
		switch cfg.Sharding {
		case ShardLayerWise:
			x.assign = ps.LayerWise(x.segments, cfg.Shards)
		case ShardBalanced:
			x.assign = ps.Balanced(x.vecLen, cfg.Shards)
		default:
			x.assign = ps.Single(x.vecLen)
		}
		x.loc = ps.NewLocator(x.assign)
		for s := range x.assign {
			machine := s % cfg.Cluster.Machines
			x.psNode = append(x.psNode, x.net.AddNode(machine).ID)
		}
		if cfg.Real != nil {
			x.global = ps.NewGlobal(x.reps[0].Params(), cfg.Momentum, cfg.WeightDecay)
		} else {
			x.global = ps.NewCostOnlyGlobal()
		}
	}

	// DGC compressors. The PS applies sparse updates with a plain
	// (momentum-free) step — momentum lives in the compressor — via
	// Global.ApplySparse, which bypasses the optimizer state.
	if cfg.DGC != nil {
		if cfg.Real != nil {
			dcfg := *cfg.DGC
			if cfg.Algo == SSP {
				// SSP transmits locally applied *updates*, which already
				// carry the worker optimizer's momentum; DGC's momentum
				// correction would apply it twice and destabilize training.
				dcfg.NoMomentumCorrection = true
			}
			for w := 0; w < cfg.Workers; w++ {
				x.dgc = append(x.dgc, grad.NewCompressor(dcfg, x.vecLen))
			}
		}
		x.dgcIter = make([]int, cfg.Workers)
	}
	x.gatherDoneAt = make([]des.Time, cfg.Cluster.Machines)

	if cfg.Real != nil {
		x.evalModel = cfg.Real.Factory(rng.New(cfg.Seed).Split(1))
		// The eval model alternates between eval-sized batches; its own
		// arena recycles the layer scratch across evals.
		x.evalModel.SetArena(tensor.NewArena())
	}

	x.col = metrics.NewCollector(cfg.Workers)
	return x, nil
}

// bytesFor converts a parameter count of the exchanged vector into
// paper-scale wire bytes.
func (x *exp) bytesFor(nParams int) int64 {
	return int64(float64(nParams*costmodel.BytesPerParam) * x.byteScale)
}

// fullBytes is the wire size of one full gradient/parameter message.
func (x *exp) fullBytes() int64 { return x.bytesFor(x.vecLen) }

// shardBytes is the wire size of shard s's segment.
func (x *exp) shardBytes(s int) int64 { return x.bytesFor(x.assign.Params(s)) }

// inbox returns worker w's mailbox.
func (x *exp) inbox(w int) *des.Queue[simnet.Msg] {
	return x.net.Node(x.workerNode[w]).Inbox
}

// psInbox returns shard s's mailbox.
func (x *exp) psInbox(s int) *des.Queue[simnet.Msg] {
	return x.net.Node(x.psNode[s]).Inbox
}

// machineGroup returns the node IDs of workers sharing worker w's machine
// (only those that exist given cfg.Workers), in worker order.
func (x *exp) machineGroup(w int) []int {
	m := x.cfg.Cluster.MachineOfWorker(w)
	var g []int
	for _, ww := range x.cfg.Cluster.WorkersOnMachine(m) {
		if ww < x.cfg.Workers {
			g = append(g, x.workerNode[ww])
		}
	}
	return g
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
// (which compresses the payload and shrinks wire bytes). useDGC is false
// for intra-machine relays that are already aggregated. jitter is the
// compute-time multiplier from computePhase, used to pace the backward
// sleeps under wait-free BP.
// wfbp controls whether this send path applies the wait-free-BP
// choreography; callers disable it when the backward pass already completed
// (e.g. BSP leaders that gathered machine-local gradients first).
func (x *exp) sendGrads(p *des.Proc, w int, clock int, grads []float32, useDGC bool, jitter float64, wfbp bool) {
	cfg := x.cfg

	// DGC: compress once over the full vector; per-shard messages carry the
	// slice of sparse entries that falls in the shard's ranges.
	var sparse grad.Sparse
	kind := kindGrad
	ratio := 1.0
	if cfg.DGC != nil && useDGC {
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
	quant := (cfg.Quantize8 || cfg.QuantizeF16) && useDGC
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

// psAggSleep models the shard-side processing cost of applying one message.
func psAggSleep(p *des.Proc, bytes int64) {
	p.Sleep(float64(bytes) / costmodel.AggRateBytesPerSec)
}

// snapshotMsg builds a shard→worker parameter reply for shard s. When DGC
// is active the reply wire size models a sparse refresh: the PS only ships
// the parameters touched since the worker's last sync — roughly the union
// of all workers' top-k updates over the pull period — because shipping the
// full dense model back would cancel most of what gradient compression
// saves. (The payload still carries the full vector in real mode; payload
// contents and wire size are decoupled throughout the simulator.)
func (x *exp) snapshotMsg(s, toNode int) simnet.Msg {
	bytes := x.shardBytes(s)
	if x.cfg.DGC != nil {
		ratio := costOnlyDGCRatio(x.cfg.DGC, x.meanDGCIter())
		period := 1
		if x.cfg.Algo == SSP {
			period = x.cfg.Staleness + 1
		}
		factor := 2 * ratio * float64(x.cfg.Workers) * float64(period)
		if factor < 1 {
			bytes = int64(float64(bytes) * factor)
			if bytes < 8 {
				bytes = 8
			}
		}
	}
	m := simnet.Msg{From: x.psNode[s], To: toNode, Kind: kindParams, Seg: s, Bytes: bytes}
	if x.global.MathOn() {
		vec := make([]float32, x.vecLen)
		x.global.Snapshot(x.assign[s], vec)
		m.Vec = vec
	}
	return m
}

// meanDGCIter returns the average per-worker compression iteration, used to
// evaluate the warm-up ratio from the PS side.
func (x *exp) meanDGCIter() int {
	if len(x.dgcIter) == 0 {
		return 0
	}
	sum := 0
	for _, v := range x.dgcIter {
		sum += v
	}
	return sum / len(x.dgcIter)
}

// evalGlobal evaluates the "global model" — PS params for centralized
// algorithms, the average of all replicas for decentralized ones — on the
// test set and appends a trace point. No-op in cost-only mode.
func (x *exp) evalGlobal(iter int) {
	if x.cfg.Real == nil {
		return
	}
	params := x.globalParams()
	x.evalModel.SetFlatParams(params)
	test := x.cfg.Real.Test
	n := test.N()
	if x.cfg.Real.EvalMax > 0 && x.cfg.Real.EvalMax < n {
		n = x.cfg.Real.EvalMax
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	xb, yb := test.Gather(idx, nil, nil)
	_, acc := x.evalModel.Evaluate(xb, yb)

	var loss float64
	cnt := 0
	for _, r := range x.reps {
		if r.lossInit {
			loss += r.lossEWMA
			cnt++
		}
	}
	if cnt > 0 {
		loss /= float64(cnt)
	}
	epoch := float64(iter*x.cfg.Real.Batch*x.cfg.Workers) / float64(x.cfg.Real.Train.N())
	tp := metrics.TracePoint{
		Iter:       iter,
		Epoch:      epoch,
		VirtualSec: x.eng.Now(),
		TrainLoss:  loss,
		TestErr:    1 - acc,
	}
	x.col.AddTrace(tp)
	if x.cfg.Progress != nil {
		x.cfg.Progress(tp)
	}
}

// psGlobal reports whether the evaluated global model is the parameter
// server's; otherwise it is the average of the replicas.
func (x *exp) psGlobal() bool { return x.global != nil && x.global.MathOn() }

// globalParams returns the parameters of the evaluated global model.
func (x *exp) globalParams() []float32 {
	if x.psGlobal() {
		out := make([]float32, x.vecLen)
		copy(out, x.global.Params)
		return out
	}
	// Decentralized (or BSP-like without math): average of replicas.
	out := make([]float32, x.vecLen)
	cnt := 0
	for _, r := range x.reps {
		if !r.mathOn() {
			continue
		}
		p := r.Params()
		for i, v := range p {
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
	return out
}

// gate is called at the top of every worker iteration loop with the next
// iteration number. It polls ctx, then consults the fault schedule: a
// worker entering a dead window either sleeps out its restart delay and
// resumes at the first alive iteration (returned so the caller can skip
// ahead), or — with no restart, or none before the run ends — is done for
// good (ok = false; the caller should fall through to its finish path).
func (x *exp) gate(p *des.Proc, w, it int) (int, bool) {
	if x.ctx != nil {
		select {
		case <-x.ctx.Done():
			x.canceled = true
			return it, false
		default:
		}
	}
	if x.inj == nil || x.inj.AliveAtIter(w, it) {
		return it, true
	}
	x.col.Faults.Crashes++
	delay := x.inj.RestartDelay(w, it)
	x.crashLog = append(x.crashLog, crashRec{worker: w, at: p.Now(), restart: delay})
	next := x.inj.NextAliveIter(w, it)
	if next == 0 || next > x.cfg.Iters {
		x.col.Faults.LostIters += x.cfg.Iters - it + 1
		return it, false
	}
	x.col.Faults.LostIters += next - it
	p.Sleep(delay)
	x.col.Faults.Restarts++
	x.restarted[w] = true
	return next, true
}

// gateSync is gate's variant for faithful (non-elastic) synchronous
// algorithms, where a crash stalls the whole system: nobody advances past
// the barrier, so a restarted worker reruns the iteration it died at
// instead of skipping the dead window, and no iterations are lost. A crash
// without restart still terminates the worker for good.
func (x *exp) gateSync(p *des.Proc, w, it int) (int, bool) {
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
	x.col.Faults.Crashes++
	delay := x.inj.RestartDelay(w, it)
	x.crashLog = append(x.crashLog, crashRec{worker: w, at: p.Now(), restart: delay})
	next := x.inj.NextAliveIter(w, it)
	if next == 0 {
		x.col.Faults.LostIters += x.cfg.Iters - it + 1
		return it, false
	}
	p.Sleep(delay)
	x.col.Faults.Restarts++
	x.restarted[w] = true
	x.syncFrom[w] = next // the window [it, next) is served; rerun it late
	return it, true
}

// barrierGate picks the crash semantic for barrier-synchronized algorithms:
// elastic runs exclude dead ranks and skip their lost iterations; faithful
// runs stall at the barrier and rerun the round when the worker returns.
func (x *exp) barrierGate(p *des.Proc, w, it int) (int, bool) {
	if x.cfg.Elastic {
		return x.gate(p, w, it)
	}
	return x.gateSync(p, w, it)
}

// iterDone is the end-of-iteration bookkeeping shared by every algorithm.
func (x *exp) iterDone(w, iter int) {
	if x.restarted != nil && x.restarted[w] {
		x.col.Faults.RecoveredIters++
	}
	x.maybeEval(w, iter)
}

// aliveNodes returns the node IDs of workers alive at iteration it and the
// position of worker w among them (-1 if w itself is dead). Without
// elastic-mode fault injection every worker is a member.
func (x *exp) aliveNodes(it, w int) ([]int, int) {
	if x.inj == nil || !x.cfg.Elastic {
		return x.workerNode, w
	}
	self := -1
	var nodes []int
	for ww := 0; ww < x.cfg.Workers; ww++ {
		if x.inj.AliveAtIter(ww, it) {
			if ww == w {
				self = len(nodes)
			}
			nodes = append(nodes, x.workerNode[ww])
		}
	}
	return nodes, self
}

// aliveCount returns how many workers run iteration it (all of them
// without elastic-mode fault injection).
func (x *exp) aliveCount(it int) int {
	if x.inj == nil || !x.cfg.Elastic {
		return x.cfg.Workers
	}
	n := 0
	for ww := 0; ww < x.cfg.Workers; ww++ {
		if x.inj.AliveAtIter(ww, it) {
			n++
		}
	}
	return n
}

// maybeEval runs the periodic evaluation from worker 0's loop.
func (x *exp) maybeEval(w, iter int) {
	if w != 0 || x.cfg.Real == nil {
		return
	}
	// A replica average at worker 0's last iterDone would miss the final
	// steps its peers have yet to apply: the last iteration is left to Run's
	// evaluation, taken once the engine has drained.
	if iter == x.cfg.Iters && !x.psGlobal() {
		return
	}
	ev := x.cfg.Real.EvalEvery
	if ev > 0 && iter%ev == 0 {
		x.evalGlobal(iter)
	}
}

// finish records completion for worker w.
func (x *exp) finish(w int) {
	x.col.Workers[w].Iters = x.reps[w].iter
	x.col.Workers[w].FinishedAt = x.eng.Now()
}

// Run executes the configured experiment to completion and returns its
// results. It is the package's main entry point. ctx cancellation is
// observed at worker iteration boundaries and aborts the run with the
// context's error; nil ctx means context.Background().
func Run(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("core: invalid config: %w", err)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("core: run not started: %w", err)
	}
	x, err := setup(&cfg)
	if err != nil {
		return nil, err
	}
	x.ctx = ctx
	if cfg.PoolSize > 0 {
		x.pool = sched.NewPool(cfg.PoolSize)
		defer x.pool.Close()
	}
	switch cfg.Algo {
	case BSP, ASP:
		runGradPS(x)
	case SSP:
		runSSP(x)
	case EASGD, AdaComm:
		runEASGD(x)
	case ARSGD:
		if err := runARSGD(x); err != nil {
			return nil, err
		}
	case GoSGD:
		runGoSGD(x)
	case ADPSGD:
		runADPSGD(x)
	case DPSGD:
		runDPSGD(x)
	case Hogwild:
		runHogwild(x)
	default:
		return nil, fmt.Errorf("core: unknown algorithm %q", cfg.Algo)
	}
	report, err := x.drain()
	if err != nil {
		return nil, err
	}
	if x.canceled {
		x.eng.Kill()
		return nil, fmt.Errorf("core: run canceled: %w", ctx.Err())
	}
	stuck := x.eng.Stuck()
	if len(stuck) > 0 && !expectedStuck(cfg.Algo) && x.inj == nil {
		x.eng.Kill()
		return nil, fmt.Errorf("core: %s deadlocked at drain: %v", cfg.Algo, report)
	}

	// Honest accounting for workers stranded at a dead peer's barrier:
	// credit the iterations they did complete, but leave FinishedAt zero —
	// a hung run has no finish time, and its sustained throughput is zero.
	stalled := 0
	for w := range x.col.Workers {
		if x.col.Workers[w].FinishedAt == 0 {
			x.col.Workers[w].Iters = x.reps[w].iter
			stalled++
		}
	}

	res := &Result{
		StuckProcs:     stuck,
		StalledWorkers: stalled,
		Config:         cfg,
		Metrics:        x.col,
		Net:            x.net.Stats(),
		VirtualSec:     x.col.MakespanSec(),
	}
	if stalled == 0 {
		res.Throughput = x.col.ThroughputSamplesPerSec(cfg.Workload.Batch)
	}
	res.BytesPerIterPerWorker = float64(res.Net.TotalBytes) / float64(cfg.Iters*cfg.Workers)
	x.faultSpans()
	if cfg.Real != nil {
		// Skip the final evaluation if the periodic evaluator already
		// sampled the last iteration (avoids a duplicate trace point).
		if n := len(x.col.Trace); n == 0 || x.col.Trace[n-1].Iter != cfg.Iters {
			x.evalGlobal(cfg.Iters)
		}
		last := x.col.Trace[len(x.col.Trace)-1]
		res.FinalTestAcc = 1 - last.TestErr
		res.FinalTrainLoss = last.TrainLoss
		res.ReplicaSpreadL2 = x.replicaSpread()
		if cfg.CaptureParams {
			res.WorkerParams = make([][]float32, len(x.reps))
			for w, r := range x.reps {
				res.WorkerParams[w] = r.Params()
			}
		}
	}
	x.eng.Kill()
	return res, nil
}

// drain runs the simulation until no event is left, then settles any pass a
// stalled process left in flight before replica state is touched
// (evalGlobal and replicaSpread would read it concurrently otherwise). A
// panic in simulated code — an algorithm loop, or the Config.Progress it
// calls — surfaces from the engine on this goroutine and becomes the run's
// error instead of the program's end; the engine is killed so that nothing
// of the failed run stays behind.
func (x *exp) drain() (report []des.ProcState, err error) {
	defer func() {
		r := recover()
		for _, rep := range x.reps {
			rep.settle()
		}
		if r != nil {
			x.eng.Kill()
			err = fmt.Errorf("core: simulated process panicked: %v", r)
		}
	}()
	return x.eng.Run(0), nil
}

// faultSpans emits the fault timeline onto the tracer: realized crashes
// (death to restart, or to the end of the run) and the scheduled network /
// slowdown windows, so a Perfetto view shows the outage against the
// training schedule.
func (x *exp) faultSpans() {
	if x.cfg.Tracer == nil || x.inj == nil {
		return
	}
	end := x.eng.Now()
	for _, cr := range x.crashLog {
		to := end
		if cr.restart > 0 && cr.at+cr.restart < end {
			to = cr.at + cr.restart
		}
		x.cfg.Tracer.Span(fmt.Sprintf("crash w%d", cr.worker), "fault",
			cr.at, to, x.cfg.Cluster.MachineOfWorker(cr.worker), cr.worker)
	}
	for i, e := range x.cfg.Faults.Events {
		if e.Kind == fault.Crash {
			continue
		}
		to := end
		if e.Duration > 0 && e.At+e.Duration < end {
			to = e.At + e.Duration
		}
		pid := 0
		switch e.Kind {
		case fault.Slow:
			pid = x.cfg.Cluster.MachineOfWorker(e.Worker)
		case fault.Degrade, fault.Drop:
			if e.Machine >= 0 {
				pid = e.Machine
			}
		case fault.Partition:
			pid = e.Machines[0]
		}
		x.cfg.Tracer.Span(e.String(), "fault", e.At, to, pid, 2000+i)
	}
}

// replicaSpread computes max_w ‖x_w − x̄‖ / ‖x̄‖ over the live replicas.
func (x *exp) replicaSpread() float64 {
	mean := make([]float64, x.vecLen)
	cnt := 0
	for _, r := range x.reps {
		if !r.mathOn() {
			return 0
		}
		for i, v := range r.Params() {
			mean[i] += float64(v)
		}
		cnt++
	}
	if cnt == 0 {
		return 0
	}
	var meanNorm float64
	for i := range mean {
		mean[i] /= float64(cnt)
		meanNorm += mean[i] * mean[i]
	}
	meanNorm = math.Sqrt(meanNorm)
	if meanNorm == 0 {
		return 0
	}
	var worst float64
	for _, r := range x.reps {
		var d float64
		for i, v := range r.Params() {
			diff := float64(v) - mean[i]
			d += diff * diff
		}
		if d = math.Sqrt(d); d > worst {
			worst = d
		}
	}
	return worst / meanNorm
}

// GradientBytes returns the traffic spent on gradient messages (dense plus
// DGC-sparse) — the quantity DGC compresses.
func (r *Result) GradientBytes() int64 {
	return r.Net.BytesByKind[kindGrad] + r.Net.BytesByKind[kindSparseGrad]
}

// ParamReplyBytes returns the traffic spent on PS→worker parameter replies.
func (r *Result) ParamReplyBytes() int64 {
	return r.Net.BytesByKind[kindParams]
}

// expectedStuck reports whether leftover blocked server procs are normal
// for the algorithm (PS shards and passive peers outlive the workers).
func expectedStuck(a Algo) bool {
	switch a {
	case ASP, SSP, EASGD, AdaComm, GoSGD, ADPSGD, BSP:
		return true
	}
	return false
}

// collective runs a comm.Collective and treats any error as a simulation
// invariant violation: the experiment built the opts itself, so a rejection
// or protocol mismatch is a bug, not an input problem.
func collective(p *des.Proc, o comm.CollectiveOpts) ([]float32, des.Time) {
	out, wire, err := comm.Collective(p, o)
	if err != nil {
		panic(fmt.Sprintf("core: collective failed: %v", err))
	}
	return out, wire
}
