package core

import (
	"fmt"
	"slices"
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/sched"
	"disttrain/internal/tensor"
)

// Replica is one worker's local training state, the one type both runtimes
// train on: the simulator builds W of them inside one process, a live worker
// builds its own. In real mode it wraps an actual model, data shard and
// optimizer; in cost-only mode every method is a cheap no-op so the
// algorithms can run unchanged.
type Replica struct {
	// mu is nil until Guard arms it. The simulator never does: its engine
	// thread must not wait on a pass in flight on the compute pool (settle
	// orders the two where the order matters).
	mu *sync.Mutex

	// real-mode state (nil in cost-only mode)
	model   *nn.Model
	sampler *data.Sampler
	train   *data.Dataset
	localO  *opt.SGD
	augment *data.Augment
	augRNG  *rng.RNG

	xbuf *tensor.Tensor
	ybuf []int
	// arena recycles the model's layer scratch buffers, so steady-state
	// steps allocate ~nothing. The replica holds no model-sized vector of
	// its own: the gradient it hands out is the model's flat gradient store,
	// and the steps and merges run in one pass over its flat parameter
	// store — two vectors per replica, plus the velocity once the replica
	// steps locally (a BSP or ASP replica never does: the PS steps).
	arena *tensor.Arena

	// lossEWMA tracks recent training loss for traces.
	lossEWMA float64
	lossInit bool

	iter int

	// pending is the in-flight forward/backward pass submitted to the
	// compute pool (nil when none). The pure numeric work runs on a pool
	// goroutine while the owning simulated process sleeps out its virtual
	// compute time; takeGrads joins it at the fixed event-trace point where
	// the gradient is first consumed. Every buffer the closure touches
	// (model and its gradient store, sampler, arena, RNG streams) is owned
	// by this replica, so futures of different replicas share nothing.
	pending *sched.Future[computeOut]

	// shared marks a Hogwild replica (shareModel): its model and optimizer
	// are worker 0's, which every worker reads and steps. Its pass therefore
	// runs inline where it is submitted, reading the shared parameters as
	// they are then, and counts as the worker's iteration and folds its loss
	// there; copied holds its gradient until takeGrads, a copy because the
	// next worker's pass overwrites the shared gradient store.
	shared bool
	copied []float32
}

// computeOut is what one offloaded forward/backward pass produces.
type computeOut struct {
	grads []float32
	loss  float64
}

// NewReplica builds worker w's real-mode replica from its streams: model
// initialized from the init stream (identical for every worker, so all
// replicas start identical), its own data shard and batch sampler.
func NewReplica(w int, cfg *Config, s Streams) *Replica {
	r := &Replica{}
	r.model = cfg.Real.Factory(s.Init)
	r.train = cfg.Real.Train
	shard := data.ShardIndices(cfg.Real.Train.N(), cfg.Workers, w)
	r.sampler = data.NewSampler(shard, cfg.Real.Batch, s.Shard)
	r.localO = opt.NewSGD(r.model.NumParams(), cfg.Momentum, cfg.WeightDecay)
	r.arena = tensor.NewArena()
	r.model.SetArena(r.arena)
	if cfg.Real.Augment != nil {
		r.augment = cfg.Real.Augment
		r.augRNG = s.Shard.Split(0xa06)
	}
	return r
}

// newCostReplica builds a math-free replica.
func newCostReplica() *Replica { return &Replica{} }

// shareModel makes r a Hogwild replica over owner's model and optimizer (see
// shared); r keeps its own data shard.
func (r *Replica) shareModel(owner *Replica) {
	r.shared = true
	r.model, r.localO = owner.model, owner.localO
}

// Guard arms the replica's mutex: from here on every exported method runs
// under it, so a second goroutine — live AD-PSGD's communication thread —
// may read and merge parameters while the owner trains.
func (r *Replica) Guard() { r.mu = new(sync.Mutex) }

func (r *Replica) lock() {
	if r.mu != nil {
		r.mu.Lock()
	}
}

func (r *Replica) unlock() {
	if r.mu != nil {
		r.mu.Unlock()
	}
}

// ComputeGrad runs one forward/backward pass on the next mini-batch, folds
// its loss into the EWMA and returns the gradient — the model's own flat
// store, the caller's to reduce into or scale in place until the next pass
// overwrites it — or nil in cost-only mode. The replica's iteration
// counter advances either way. This is the synchronous path of live workers
// and of the simulator's shared (Hogwild) replicas; the simulator's other
// replicas use beginCompute/takeGrads.
func (r *Replica) ComputeGrad() []float32 {
	r.lock()
	defer r.unlock()
	r.iter++
	if r.model == nil {
		return nil
	}
	out := r.gradPass()
	r.foldLoss(out.loss)
	return out.grads
}

// gradPass is the pure numeric work of one iteration: draw the next
// mini-batch, forward, backward — which writes the gradient where it is
// handed out from. It touches only replica-owned state, which is what makes
// it safe to run on a pool goroutine while the engine thread keeps
// simulating.
func (r *Replica) gradPass() computeOut {
	idx := r.sampler.Next()
	r.xbuf, r.ybuf = r.train.Gather(idx, r.xbuf, r.ybuf)
	if r.augment != nil {
		r.augment.Apply(r.xbuf, r.augRNG)
	}
	loss, _ := r.model.Loss(r.xbuf, r.ybuf)
	return computeOut{grads: r.model.Grads(), loss: loss}
}

// Loss returns the training-loss EWMA and whether any pass has fed it.
func (r *Replica) Loss() (float64, bool) {
	r.lock()
	defer r.unlock()
	return r.lossEWMA, r.lossInit
}

// foldLoss folds one batch loss into the trace EWMA.
func (r *Replica) foldLoss(loss float64) {
	if !r.lossInit {
		r.lossEWMA, r.lossInit = loss, true
	} else {
		r.lossEWMA = 0.9*r.lossEWMA + 0.1*loss
	}
}

// beginCompute submits the iteration's forward/backward pass to the pool
// (inline on a nil pool). No-op in cost-only mode, but for a shared replica,
// which runs its pass here and now whatever the pool and counts it even
// without math. The caller must consume the result with takeGrads before
// submitting the next pass.
func (r *Replica) beginCompute(pool *sched.Pool) {
	if r.shared {
		r.copied = slices.Clone(r.ComputeGrad())
		return
	}
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
func (r *Replica) takeGrads() []float32 {
	if r.shared {
		return r.copied
	}
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
func (r *Replica) settle() {
	if r.pending != nil {
		r.pending.Wait()
	}
}

// LocalStep applies one local SGD step with gradient scale·g (no-op on nil):
// scale is 1 for a worker's own gradient and 1/members for an all-reduced
// sum, averaged in the same pass over g that steps — g itself is only read.
func (r *Replica) LocalStep(g []float32, scale, lr float32) {
	if r.model == nil || g == nil {
		return
	}
	r.lock()
	defer r.unlock()
	r.settle()
	r.localO.StepAt(r.model.Weights(), g, scale, lr, 0) // panics on a length mismatch
}

// Params returns a fresh copy of the flat parameters (nil in cost-only).
func (r *Replica) Params() []float32 {
	if r.model == nil {
		return nil
	}
	r.lock()
	defer r.unlock()
	return slices.Clone(r.model.Weights())
}

// Weights returns the model's flat parameter store itself (nil in
// cost-only mode), for a caller that reads it once no thread can write the
// replica any more: a finished worker's report ships it with no copy.
func (r *Replica) Weights() []float32 {
	if r.model == nil {
		return nil
	}
	return r.model.Weights()
}

// SetParams overwrites the full parameter vector (no-op on nil).
func (r *Replica) SetParams(src []float32) {
	if r.model == nil || src == nil {
		return
	}
	r.lock()
	defer r.unlock()
	r.settle()
	r.model.SetFlatParams(src)
}

// SetRanges overwrites the parameters in ranges rs with src's values there
// (no-op on nil): one parameter-server shard's answer.
func (r *Replica) SetRanges(src []float32, rs []ps.Range) {
	if r.model == nil || src == nil {
		return
	}
	r.lock()
	defer r.unlock()
	r.settle()
	w := r.model.Weights()
	for _, rg := range rs {
		copy(w[rg.Off:rg.Off+rg.Len], src[rg.Off:rg.Off+rg.Len])
	}
}

// Average sets params ← (params + other)/2, the AD-PSGD/gossip merge.
func (r *Replica) Average(other []float32) {
	if r.model == nil || other == nil {
		return
	}
	r.lock()
	defer r.unlock()
	r.settle()
	w := r.model.Weights()
	for i, o := range other[:len(w)] {
		w[i] = 0.5 * (w[i] + o)
	}
}

// Mix sets params ← (params + Σ others)/(1 + len(others)), folding others in
// their order: D-PSGD's ring mix. No-op in cost-only mode.
func (r *Replica) Mix(others [][]float32) {
	if r.model == nil {
		return
	}
	r.lock()
	defer r.unlock()
	r.settle()
	inv := 1 / float32(len(others)+1)
	w := r.model.Weights()
	for i := range w {
		s := w[i]
		for _, o := range others {
			s += o[i]
		}
		w[i] = s * inv
	}
}

// WeightedMerge performs GoSGD's merge: x ← (w·x + ws·xs)/(w+ws), returning
// the new local weight w+ws.
func (r *Replica) WeightedMerge(own float64, xs []float32, ws float64) float64 {
	if r.model == nil || xs == nil {
		return own + ws
	}
	r.lock()
	defer r.unlock()
	r.settle()
	a := float32(own / (own + ws))
	b := float32(ws / (own + ws))
	w := r.model.Weights()
	for i, x := range xs[:len(w)] {
		w[i] = a*w[i] + b*x
	}
	return own + ws
}

// SaveState checkpoints the replica's full training state — parameters,
// momentum (none before the replica first steps locally), loss EWMA, and the
// data-stream counters — atomically to path.
func (r *Replica) SaveState(path string, step, draws int) error {
	r.lock()
	defer r.unlock()
	st := &nn.TrainState{
		Step:     uint64(step),
		Draws:    uint64(draws),
		Loss:     r.lossEWMA,
		LossInit: r.lossInit,
		Velocity: r.localO.Velocity(),
	}
	if r.augRNG != nil {
		st.AugRNG = r.augRNG.State()
		st.AugRNGSet = true
	}
	return nn.SaveState(path, r.model, st)
}

// RestoreState loads a checkpoint written by SaveState into the replica:
// parameters and momentum in place, loss EWMA, the sampler fast-forwarded
// by the checkpointed draw count, and the augmentation RNG restored to its
// exact checkpointed state. NewSampler shuffles deterministically from the
// shard stream and Next reshuffles on epoch boundaries only as a function
// of the draw count, so replaying Draws calls on a freshly built replica
// reproduces the dead worker's exact stream position; the augmentation
// stream advances a data-dependent number of times per batch, so it is
// restored from raw state rather than replayed (v1 checkpoints predate that
// section and leave the fresh stream in place). Returns the checkpointed
// step so the caller knows where to resume.
func (r *Replica) RestoreState(path string) (step, draws int, err error) {
	r.lock()
	defer r.unlock()
	st, err := nn.LoadState(path, r.model)
	if err != nil {
		return 0, 0, err
	}
	if n := len(st.Velocity); n > 0 {
		if n != r.model.NumParams() {
			return 0, 0, fmt.Errorf("core: checkpoint velocity has %d entries, model %d", n, r.model.NumParams())
		}
		r.localO.SetVelocity(st.Velocity)
	}
	r.lossEWMA, r.lossInit = st.Loss, st.LossInit
	for i := uint64(0); i < st.Draws; i++ {
		r.sampler.Next()
	}
	if st.AugRNGSet && r.augRNG != nil {
		r.augRNG.SetState(st.AugRNG)
	}
	return int(st.Step), int(st.Draws), nil
}
