package core

import (
	"fmt"

	"disttrain/internal/data"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
	"disttrain/internal/sched"
	"disttrain/internal/tensor"
)

// replica is one worker's local training state. In real mode it wraps an
// actual model, data shard and optimizer; in cost-only mode every method is
// a cheap no-op so the algorithms can run unchanged.
type replica struct {
	id int

	// real-mode state (nil in cost-only mode)
	model   *nn.Model
	sampler *data.Sampler
	train   *data.Dataset
	localO  *opt.SGD
	augment *data.Augment
	augRNG  *rng.RNG

	xbuf  *tensor.Tensor
	ybuf  []int
	grads []float32
	// arena recycles the model's layer scratch buffers; flat is a reusable
	// parameter staging vector for the merges that read every parameter
	// (setRanges, average, weightedMerge), so steady-state steps allocate
	// ~nothing.
	arena *tensor.Arena
	flat  []float32

	// lossEWMA tracks recent training loss for traces.
	lossEWMA float64
	lossInit bool

	iter int

	// pending is the in-flight forward/backward pass submitted to the
	// compute pool (nil when none). The pure numeric work runs on a pool
	// goroutine while the owning simulated process sleeps out its virtual
	// compute time; takeGrads joins it at the fixed event-trace point where
	// the gradient is first consumed. Every buffer the closure touches
	// (model, sampler, arena, RNG streams, grads) is owned by this replica,
	// so futures of different replicas share nothing.
	pending *sched.Future[computeOut]
}

// computeOut is what one offloaded forward/backward pass produces.
type computeOut struct {
	grads []float32
	loss  float64
}

// newRealReplica builds worker w's replica: model initialized from the
// shared init stream (all replicas start identical), its own data shard and
// batch sampler.
func newRealReplica(w int, cfg *Config, initStream *rng.RNG, shardStream *rng.RNG) *replica {
	r := &replica{id: w}
	r.model = cfg.Real.Factory(initStream)
	r.train = cfg.Real.Train
	shard := data.ShardIndices(cfg.Real.Train.N(), cfg.Workers, w)
	r.sampler = data.NewSampler(shard, cfg.Real.Batch, shardStream)
	r.localO = opt.NewSGD(r.model.NumParams(), cfg.Momentum, cfg.WeightDecay)
	r.grads = make([]float32, r.model.NumParams())
	r.arena = tensor.NewArena()
	r.model.SetArena(r.arena)
	r.flat = make([]float32, r.model.NumParams())
	if cfg.Real.Augment != nil {
		r.augment = cfg.Real.Augment
		r.augRNG = shardStream.Split(0xa06)
	}
	return r
}

// newCostReplica builds a math-free replica.
func newCostReplica(w int) *replica { return &replica{id: w} }

// mathOn reports whether this replica does real parameter math.
func (r *replica) mathOn() bool { return r.model != nil }

// size returns the flat parameter count (0 in cost-only mode).
func (r *replica) size() int {
	if r.model == nil {
		return 0
	}
	return r.model.NumParams()
}

// computeGrad runs one forward/backward pass on the next mini-batch and
// returns the replica's gradient buffer (valid until the next call), or nil
// in cost-only mode. The replica's iteration counter advances either way.
// This is the synchronous path (Hogwild's shared-model workers, which must
// not run concurrently with each other's updates); the simulated-cluster
// algorithms use beginCompute/takeGrads instead.
func (r *replica) computeGrad() []float32 {
	r.iter++
	if r.model == nil {
		return nil
	}
	out := r.gradPass()
	r.foldLoss(out.loss)
	return out.grads
}

// gradPass is the pure numeric work of one iteration: draw the next
// mini-batch, forward, backward, flatten into r.grads. It touches only
// replica-owned state, which is what makes it safe to run on a pool
// goroutine while the engine thread keeps simulating.
func (r *replica) gradPass() computeOut {
	idx := r.sampler.Next()
	r.xbuf, r.ybuf = r.train.Gather(idx, r.xbuf, r.ybuf)
	if r.augment != nil {
		r.augment.Apply(r.xbuf, r.augRNG)
	}
	r.model.ZeroGrads()
	loss, _ := r.model.Loss(r.xbuf, r.ybuf)
	return computeOut{grads: r.model.FlatGrads(r.grads), loss: loss}
}

// foldLoss folds one batch loss into the trace EWMA.
func (r *replica) foldLoss(loss float64) {
	if !r.lossInit {
		r.lossEWMA, r.lossInit = loss, true
	} else {
		r.lossEWMA = 0.9*r.lossEWMA + 0.1*loss
	}
}

// beginCompute submits the iteration's forward/backward pass to the pool
// (inline on a nil pool). No-op in cost-only mode. The caller must consume
// the result with takeGrads before submitting the next pass.
func (r *replica) beginCompute(pool *sched.Pool) {
	if r.model == nil {
		return
	}
	if r.pending != nil {
		panic("core: replica compute already in flight")
	}
	r.pending = sched.Submit(pool, r.gradPass)
}

// takeGrads joins the in-flight pass, folds its loss into the EWMA, and
// returns the gradient buffer (nil in cost-only mode). Its call site fixes
// the join point in the event trace, so results cannot depend on when the
// pool actually ran the work.
func (r *replica) takeGrads() []float32 {
	if r.pending == nil {
		return nil
	}
	out := r.pending.Wait()
	r.pending = nil
	r.foldLoss(out.loss)
	return out.grads
}

// settle blocks until any in-flight pass has finished, without consuming
// it. Every parameter-writing method calls it first: in AD-PSGD a worker's
// communication process may average peer parameters into the model while
// the compute process's pass is still in flight, and the pass must read the
// parameters as of its fixed submission point — not a racing mixture.
// Wait is idempotent, so the owning process's later takeGrads still works.
func (r *replica) settle() {
	if r.pending != nil {
		r.pending.Wait()
	}
}

// localStep applies one local SGD step with gradient g (no-op on nil).
func (r *replica) localStep(g []float32, lr float32) {
	if r.model == nil || g == nil {
		return
	}
	r.settle()
	StepModelSGD(r.model, r.localO, g, lr)
}

// StepModelSGD applies one SGD step with the flat gradient g to every
// parameter tensor of m where it lives, o's state windowed per tensor. SGD
// is element-wise, so the bits are those of stepping a flat copy of the
// parameters and writing it back, without the two model-sized copies.
func StepModelSGD(m *nn.Model, o *opt.SGD, g []float32, lr float32) {
	if len(g) != m.NumParams() {
		panic(fmt.Sprintf("core: gradient length %d, want %d", len(g), m.NumParams()))
	}
	off := 0
	for _, p := range m.Params() {
		w := p.W.Data
		o.StepAt(w, g[off:off+len(w)], lr, off)
		off += len(w)
	}
}

// params returns a fresh copy of the flat parameters (nil in cost-only).
func (r *replica) params() []float32 {
	if r.model == nil {
		return nil
	}
	return r.model.FlatParams(nil)
}

// setParams overwrites the full parameter vector (no-op on nil).
func (r *replica) setParams(src []float32) {
	if r.model == nil || src == nil {
		return
	}
	r.settle()
	r.model.SetFlatParams(src)
}

// setRanges overwrites only the given flat ranges from src (full-length).
func (r *replica) setRanges(ranges []rangeT, src []float32) {
	if r.model == nil || src == nil {
		return
	}
	r.settle()
	flat := r.model.FlatParams(r.flat)
	for _, rg := range ranges {
		copy(flat[rg.Off:rg.Off+rg.Len], src[rg.Off:rg.Off+rg.Len])
	}
	r.model.SetFlatParams(flat)
}

// average sets params ← (params + other)/2, the AD-PSGD/gossip merge.
func (r *replica) average(other []float32) {
	if r.model == nil || other == nil {
		return
	}
	r.settle()
	flat := r.model.FlatParams(r.flat)
	for i := range flat {
		flat[i] = 0.5 * (flat[i] + other[i])
	}
	r.model.SetFlatParams(flat)
}

// weightedMerge performs GoSGD's merge: x ← (w·x + ws·xs)/(w+ws), returning
// the new local weight w+ws.
func (r *replica) weightedMerge(own float64, xs []float32, ws float64) float64 {
	if r.model == nil || xs == nil {
		return own + ws
	}
	r.settle()
	flat := r.model.FlatParams(r.flat)
	a := float32(own / (own + ws))
	b := float32(ws / (own + ws))
	for i := range flat {
		flat[i] = a*flat[i] + b*xs[i]
	}
	r.model.SetFlatParams(flat)
	return own + ws
}
