package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

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

// The worker-to-worker kinds, the same on both runtimes: a packet capture of
// a live run reads against the simulator's message taxonomy.
const (
	KindAllReduce = iota + 8
	KindGossip
	KindExchangeReq
	KindExchangeReply
	KindLocalGather
	KindLocalBcast
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
	// syncFrom[w] is the first iteration whose crash window gate has not yet
	// served for worker w (faithful synchronous restart bookkeeping).
	syncFrom []int
	// crashLog records realized deaths for the fault trace spans.
	crashLog []crashRec

	workerNode []int // worker -> node ID
	psNode     []int // shard -> node ID

	// mail[w] is worker w's receive, shared by its threads; msgs is the free
	// list every simulated message is drawn from and returned to, and vecs
	// the lender of every model-sized vector a message carries, which each
	// message that carries one holds (tensor.Lender).
	mail []Mailbox
	msgs Msgs
	vecs tensor.Lender[float32]

	assign ps.Assignment
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

	// dgcEntry is the wire size of one DGC entry: its index and its value in
	// the gradient codec.
	dgcEntry float64

	// evalModel is a scratch model used to evaluate global/average params,
	// and avg the replicas' average it evaluates in a decentralized run (real
	// mode only; avg is allocated at the first evaluation).
	evalModel *nn.Model
	avg       []float32
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
	x.mail = make([]Mailbox, cfg.Workers)
	for w := 0; w < cfg.Workers; w++ {
		x.workerNode = append(x.workerNode, x.net.AddNode(cfg.Cluster.MachineOfWorker(w)).ID)
	}

	// Gossip overlay: the generator is seeded once and shared read-only by
	// every worker.
	x.overlay = BuildOverlay(cfg, overlayStream)

	// Replicas. All workers start with identical weights, as the algorithms
	// assume: the initial model is drawn once (InitModel), replica 0 adopts
	// its store and every other replica binds a copy of it. Hogwild's
	// workers all train worker 0's model and build none of their own.
	x.reps = make([]*Replica, cfg.Workers)
	var init []float32
	if cfg.Real != nil {
		init = InitModel(cfg).Weights()
	}
	for w := 0; w < cfg.Workers; w++ {
		switch {
		case cfg.Real == nil:
			x.reps[w] = newCostReplica()
			continue
		case w == 0:
			x.reps[w] = NewReplica(w, cfg, x.streams[w], init)
			x.reps[w].shared = cfg.Algo == Hogwild // the model every worker trains
		case cfg.Algo == Hogwild:
			x.reps[w] = sharedReplica(w, cfg, x.streams[w], x.reps[0])
		default:
			x.reps[w] = NewReplica(w, cfg, x.streams[w], slices.Clone(init))
		}
		x.reps[w].vecs = &x.vecs
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

	// PS shards (centralized algorithms only): one layout, which every
	// replica shares.
	if cfg.Algo.Centralized() {
		x.assign = psShards(cfg, x.segments, x.vecLen)
		loc := ps.NewLocator(x.assign)
		for _, r := range x.reps {
			r.shards, r.loc = x.assign, loc
		}
		for s := range x.assign {
			x.psNode = append(x.psNode, x.net.AddNode(cfg.ShardMachine(s)).ID)
		}
		if cfg.Real != nil {
			// The global adopts a copy of replica 0's parameters: every
			// replica's initial ones.
			x.global = ps.NewGlobal(slices.Clone(x.reps[0].Weights()), cfg.Momentum, cfg.WeightDecay)
		} else {
			x.global = ps.NewCostOnlyGlobal()
		}
	}

	// DGC messages are priced per entry. (The PS applies their sparse updates
	// with a plain, momentum-free step — momentum lives in the replicas'
	// compressors — via Global.ApplySparse, which bypasses the optimizer
	// state.)
	if cfg.DGC != nil {
		x.dgcEntry = dgcEntryBytes(cfg)
	}

	if cfg.Real != nil {
		x.evalModel = EvalModel(cfg)
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

// dgcEntryBytes is the wire size of one DGC entry: grad.Sparse's index and
// float32 value, or the index and the value in the gradient codec — an int8
// code, the vector's one scale amortized to nothing, or a half.
func dgcEntryBytes(cfg *Config) float64 {
	const index = 4
	value := grad.Sparse{Idx: []int32{0}, Val: []float32{0}}.WireBytes() - index
	switch {
	case cfg.Quantize8:
		value = grad.Quantized8{Q: []int8{0}}.WireBytes() - grad.Quantized8{}.WireBytes()
	case cfg.QuantizeF16:
		value = grad.QuantizedF16{H: []uint16{0}}.WireBytes()
	}
	return float64(index + value)
}

// fullBytes is the wire size of one full gradient/parameter message.
func (x *exp) fullBytes() int64 { return x.bytesFor(x.vecLen) }

// shardBytes is the wire size of shard s's segment.
func (x *exp) shardBytes(s int) int64 { return x.bytesFor(x.assign.Params(s)) }

// InitModel draws the run's initial model from the seed's
// model-initialization stream: the one draw a run makes — once per
// simulated run, once per live process — whose parameters every replica
// and the parameter server start from, each in a copy of its own.
func InitModel(cfg *Config) *nn.Model {
	return cfg.Real.Factory(rng.New(cfg.Seed).Split(1))
}

// EvalModel builds the model both runtimes evaluate the global parameters
// on: the run's architecture with no initial draw, and so with no parameter
// store either — TestErr binds the vector it evaluates.
func EvalModel(cfg *Config) *nn.Model {
	return cfg.Real.Factory(nil)
}

// GlobalParams returns the parameters of the model a run reports on: ps, the
// parameter server's, when it is non-nil; otherwise the mean of the replicas'
// (nil entries skipped), summed in rank order onto +0 and then scaled by
// 1/n (tensor.MeanF32), written into dst, which must have their length. nil
// when there is neither.
func GlobalParams(dst, ps []float32, replicas [][]float32) []float32 {
	if ps != nil {
		return ps
	}
	replicas = slices.DeleteFunc(slices.Clone(replicas), func(p []float32) bool { return p == nil })
	if len(replicas) == 0 {
		return nil
	}
	tensor.MeanF32(dst, replicas)
	return dst
}

// TestErr evaluates params on m, which computes with them where they lie
// (nn.Model.Bind) and holds no store of them afterwards, and returns their
// error rate, 1 − accuracy, on the first EvalMax test examples (all of them
// when EvalMax is 0): the value a trace point records, and the one a run's
// FinalTestAcc is 1 minus.
func (rc *RealConfig) TestErr(m *nn.Model, params []float32) float64 {
	m.Bind(params)
	defer m.Bind(nil)
	n := rc.Test.N()
	if rc.EvalMax > 0 && rc.EvalMax < n {
		n = rc.EvalMax
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	xb, yb := rc.Test.Gather(idx, nil, nil)
	_, acc := m.Evaluate(xb, yb)
	return 1 - acc
}

// evalGlobal evaluates the global model on the test set and appends a trace
// point. No-op in cost-only mode.
func (x *exp) evalGlobal(iter int) {
	if x.cfg.Real == nil {
		return
	}
	testErr := x.cfg.Real.TestErr(x.evalModel, x.globalParams())

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
		TestErr:    testErr,
	}
	x.col.AddTrace(tp)
	if x.cfg.Progress != nil {
		x.cfg.Progress(tp)
	}
}

// psGlobal reports whether the evaluated global model is the parameter
// server's; otherwise it is the average of the replicas.
func (x *exp) psGlobal() bool { return x.global != nil && x.global.MathOn() }

// globalParams returns the parameters of the evaluated global model: the
// PS's, or the replicas' average in x.avg. The replicas are read where they
// lie: no process runs while the engine thread evaluates, and a pass still
// on the compute pool only reads them.
func (x *exp) globalParams() []float32 {
	if x.psGlobal() {
		return x.global.Params
	}
	ws := make([][]float32, len(x.reps))
	for w, r := range x.reps {
		ws[w] = r.Weights()
	}
	if x.avg == nil {
		x.avg = make([]float32, x.vecLen)
	}
	return GlobalParams(x.avg, nil, ws)
}

// maybeEval runs the periodic evaluation from worker 0's loop.
func (x *exp) maybeEval(w, iter int) {
	if w != 0 || x.cfg.Real == nil {
		return
	}
	// A replica average at worker 0's last Done would miss the final
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
	x.spawnWorkers()
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
		// The spread reads the replicas where they lie; only a caller that
		// asks for their parameters gets copies.
		params := make([][]float32, len(x.reps))
		for w, r := range x.reps {
			params[w] = r.Weights()
		}
		res.ReplicaSpreadL2 = ReplicaSpread(params)
		if cfg.CaptureParams {
			for w, p := range params {
				params[w] = slices.Clone(p)
			}
			res.WorkerParams = params
		}
	}
	x.eng.Kill()
	return res, nil
}

// drain runs the simulation until no event is left, then settles any pass a
// stalled process left in flight before replica state is touched
// (evalGlobal and the final report would read it concurrently otherwise). A
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

// ReplicaSpread returns the replicas' consensus distance, max_w ‖x_w − x̄‖ /
// ‖x̄‖ in float64, from their parameter vectors; 0 when there are none, when
// one is nil (no math) or when x̄ is zero.
func ReplicaSpread(params [][]float32) float64 {
	if len(params) == 0 {
		return 0
	}
	mean := make([]float64, len(params[0]))
	for _, p := range params {
		if p == nil {
			return 0
		}
		for i, v := range p {
			mean[i] += float64(v)
		}
	}
	var meanNorm float64
	for i := range mean {
		mean[i] /= float64(len(params))
		meanNorm += mean[i] * mean[i]
	}
	meanNorm = math.Sqrt(meanNorm)
	if meanNorm == 0 {
		return 0
	}
	var worst float64
	for _, p := range params {
		var d float64
		for i, v := range p {
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

// StuckCommThreads counts the communication threads that initiate exchanges
// and were still blocked when the run drained: under the AD-PSGD
// no-bipartite ablation, the wait-for cycles of Section IV-C. A passive
// thread answers until teardown by design and is not counted.
func (r *Result) StuckCommThreads() int {
	n := 0
	for _, name := range r.StuckProcs {
		if strings.HasPrefix(name, string(r.Config.Algo)+"-"+commThread) {
			n++
		}
	}
	return n
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
