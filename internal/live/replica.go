package live

import (
	"sync"

	"disttrain/internal/core"
	"disttrain/internal/data"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// streams holds the RNG streams one live worker derives from the
// experiment seed.
type streams struct {
	init  *rng.RNG // model initialization (identical for every worker)
	shard *rng.RNG // batch sampling for this worker's data shard
	algo  *rng.RNG // algorithm decisions (gossip draws, peer choice)
}

// deriveStreams replays the simulator's seed-derivation sequence
// (core.setup) for worker w. rng.Split advances the parent, so each root's
// earlier splits must be replayed in order for worker w's own split to see
// the same parent state the simulator's did — that replay is the whole
// trick that lets W independent processes agree with one simulator loop.
func deriveStreams(seed uint64, w int) streams {
	root := rng.New(seed)
	_ = root.Split(1) // label 1 is reserved for model initialization streams
	shardRoot := root.Split(2)
	_ = root.Split(3) // jitter root: virtual-time only, but it advances root
	algoRoot := root.Split(4)

	var s streams
	for i := 0; i <= w; i++ {
		algo := algoRoot.Split(uint64(i))
		shard := shardRoot.Split(uint64(i))
		if i == w {
			s.algo, s.shard = algo, shard
		}
	}
	s.init = rng.New(seed).Split(1)
	return s
}

// liveReplica is one live worker's training state, mirroring the
// simulator's real-mode replica construction field for field so the two
// runtimes produce identical numerics from identical streams. Unlike the
// simulator's replica it carries a mutex: AD-PSGD's passive workers serve
// parameter exchanges from a second goroutine while the compute loop runs.
type liveReplica struct {
	mu sync.Mutex

	model   *nn.Model
	sampler *data.Sampler
	train   *data.Dataset
	localO  *opt.SGD
	augment *data.Augment
	augRNG  *rng.RNG

	xbuf  *tensor.Tensor
	ybuf  []int
	grads []float32
	arena *tensor.Arena
	flat  []float32

	lossEWMA float64
	lossInit bool
}

// newLiveReplica builds worker w's replica with exactly the simulator's
// construction sequence (newRealReplica): same factory call, same shard,
// same sampler stream, same optimizer, same augmentation stream label.
func newLiveReplica(w int, cfg *core.Config, s streams) *liveReplica {
	r := &liveReplica{}
	r.model = cfg.Real.Factory(s.init)
	r.train = cfg.Real.Train
	shard := data.ShardIndices(cfg.Real.Train.N(), cfg.Workers, w)
	r.sampler = data.NewSampler(shard, cfg.Real.Batch, s.shard)
	r.localO = opt.NewSGD(r.model.NumParams(), cfg.Momentum, cfg.WeightDecay)
	r.grads = make([]float32, r.model.NumParams())
	r.arena = tensor.NewArena()
	r.model.SetArena(r.arena)
	r.flat = make([]float32, r.model.NumParams())
	if cfg.Real.Augment != nil {
		r.augment = cfg.Real.Augment
		r.augRNG = s.shard.Split(0xa06)
	}
	return r
}

func (r *liveReplica) size() int { return r.model.NumParams() }

// gradPass runs one forward/backward pass on the next mini-batch and
// returns the gradient buffer (valid until the next call), folding the
// batch loss into the EWMA — the simulator's gradPass + foldLoss.
func (r *liveReplica) gradPass() []float32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := r.sampler.Next()
	r.xbuf, r.ybuf = r.train.Gather(idx, r.xbuf, r.ybuf)
	if r.augment != nil {
		r.augment.Apply(r.xbuf, r.augRNG)
	}
	r.model.ZeroGrads()
	loss, _ := r.model.Loss(r.xbuf, r.ybuf)
	g := r.model.FlatGrads(r.grads)
	if !r.lossInit {
		r.lossEWMA, r.lossInit = loss, true
	} else {
		r.lossEWMA = 0.9*r.lossEWMA + 0.1*loss
	}
	return g
}

func (r *liveReplica) loss() (float64, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lossEWMA, r.lossInit
}

// localStep applies one local SGD step with gradient g.
func (r *liveReplica) localStep(g []float32, lr float32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	core.StepModelSGD(r.model, r.localO, g, lr)
}

// params returns a fresh copy of the flat parameters.
func (r *liveReplica) params() []float32 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.model.FlatParams(nil)
}

// setParams overwrites the full parameter vector.
func (r *liveReplica) setParams(src []float32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.model.SetFlatParams(src)
}

// average sets params ← (params + other)/2, the AD-PSGD merge.
func (r *liveReplica) average(other []float32) {
	r.mu.Lock()
	defer r.mu.Unlock()
	flat := r.model.FlatParams(r.flat)
	for i := range flat {
		flat[i] = 0.5 * (flat[i] + other[i])
	}
	r.model.SetFlatParams(flat)
}

// saveState checkpoints the replica's full training state — parameters,
// momentum, loss EWMA, and the data-stream counters — atomically to path.
func (r *liveReplica) saveState(path string, step, draws int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
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

// restoreState loads a checkpoint written by saveState into the replica:
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
func (r *liveReplica) restoreState(path string) (step, draws int, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st, err := nn.LoadState(path, r.model)
	if err != nil {
		return 0, 0, err
	}
	if len(st.Velocity) > 0 {
		copy(r.localO.Velocity(), st.Velocity)
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

// weightedMerge performs GoSGD's merge: x ← (w·x + ws·xs)/(w+ws),
// returning the new local weight w+ws.
func (r *liveReplica) weightedMerge(own float64, xs []float32, ws float64) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	flat := r.model.FlatParams(r.flat)
	a := float32(own / (own + ws))
	b := float32(ws / (own + ws))
	for i := range flat {
		flat[i] = a*flat[i] + b*xs[i]
	}
	r.model.SetFlatParams(flat)
	return own + ws
}
