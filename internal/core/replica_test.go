package core

import (
	"context"
	"math"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
)

func testReplica(t *testing.T, w int) *Replica {
	t.Helper()
	r := rng.New(100)
	ds := data.GenGauss(r, 100, 3, 0.3)
	cfg := &Config{
		Algo:     BSP,
		Cluster:  cluster.Paper56G(2),
		Workers:  2,
		Workload: costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128),
		Iters:    10,
		Momentum: 0.9,
		LR:       opt.Schedule{Base: 0.1},
		Real: &RealConfig{
			Factory: func(rr *rng.RNG) *nn.Model { return nn.NewMLP(rr, 2, 4, 3) },
			Train:   ds,
			Test:    ds,
			Batch:   8,
		},
	}
	return NewReplica(w, cfg, Streams{Shard: rng.New(2)}, cfg.Real.Factory(rng.New(1).Split(1)).Weights())
}

// TestReplicaFootprint pins how many model-sized vectors a training replica
// holds: parameters, the gradient store backward writes and everything
// downstream reads, and — only once it steps locally — the optimizer's
// velocity: three for a replica that steps (there were six: a per-layer dW
// scratch, a flattened gradient copy and a parameter staging vector on top),
// two for one whose parameters only arrive from elsewhere, as a BSP or ASP
// worker's do. Measured as live heap after collection around a replica that
// has trained, merged and stepped (or been overwritten), so anything
// allocated lazily is counted; the slack covers activations and batch
// buffers.
func TestReplicaFootprint(t *testing.T) {
	rd := rng.New(100)
	ds := data.GenGauss(rd, 100, 3, 0.3)
	cfg := &Config{
		Algo: BSP, Cluster: cluster.Paper56G(2), Workers: 2, Iters: 10, Momentum: 0.9,
		Workload: costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128),
		LR:       opt.Schedule{Base: 0.1},
		Real: &RealConfig{
			Factory: func(rr *rng.RNG) *nn.Model { return nn.NewMLP(rr, 2, 1024, 1024, 3) },
			Train:   ds, Test: ds, Batch: 8,
		},
	}
	live := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for _, tc := range []struct {
		name  string
		steps bool
		want  float64
	}{{"stepping", true, 3}, {"overwritten", false, 2}} {
		before := live()
		r := NewReplica(0, cfg, Streams{Shard: rng.New(2)}, cfg.Real.Factory(rng.New(1).Split(1)).Weights())
		other := r.Params()
		for i := 0; i < 2; i++ {
			g := r.ComputeGrad()
			if tc.steps {
				r.LocalStep(g, 0.5, 0.1)
			}
			r.Average(other)
			r.WeightedMerge(1, other, 1)
			r.SetRanges(other, ps.Single(len(other))[0])
		}
		n := len(other)
		other = nil
		held := float64(live()-before) / 4 / float64(n)
		runtime.KeepAlive(r)
		t.Logf("%s replica of %d parameters holds %.2f model-sized float vectors", tc.name, n, held)
		if held > tc.want+0.1 {
			t.Fatalf("%s replica holds %.2f model-sized vectors, want %v", tc.name, held, tc.want)
		}
	}
}

// TestEvalModelHoldsNoStore: the model both runtimes evaluate on allocates
// no parameter store — neither when built nor when TestErr evaluates a
// vector on it, which it reads where it lies — and scores that vector as a
// model holding it does.
func TestEvalModelHoldsNoStore(t *testing.T) {
	ds := data.GenGauss(rng.New(100), 100, 3, 0.3)
	cfg := &Config{Real: &RealConfig{
		Factory: func(rr *rng.RNG) *nn.Model { return nn.NewMLP(rr, 2, 1024, 1024, 3) },
		Test:    ds, EvalMax: 8,
	}}
	drawn := cfg.Real.Factory(rng.New(1))
	params := drawn.Weights()
	want := cfg.Real.TestErr(drawn, params)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := cfg.Real.TestErr(EvalModel(cfg), params)
	runtime.ReadMemStats(&after)
	vec := uint64(4 * len(params))
	if allocated := after.TotalAlloc - before.TotalAlloc; allocated > vec/4 {
		t.Fatalf("evaluating allocated %d bytes; one parameter vector is %d", allocated, vec)
	}
	if got != want {
		t.Fatalf("the evaluation model scores %v, a model holding the vector %v", got, want)
	}
}

func TestReplicaComputeGradAdvancesIter(t *testing.T) {
	r := testReplica(t, 0)
	if r.iter != 0 {
		t.Fatalf("fresh iter %d", r.iter)
	}
	g := r.ComputeGrad()
	if g == nil || r.iter != 1 {
		t.Fatalf("grad nil=%v iter=%d", g == nil, r.iter)
	}
	for i, v := range g {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("non-finite gradient element %d: %v", i, v)
		}
	}
}

func TestReplicaIdenticalInit(t *testing.T) {
	a, b := testReplica(t, 0), testReplica(t, 1)
	pa, pb := a.Params(), b.Params()
	for i := range pa {
		if pa[i] != pb[i] {
			t.Fatal("replicas start different despite shared init stream")
		}
	}
}

func TestReplicaAverage(t *testing.T) {
	r := testReplica(t, 0)
	orig := r.Params()
	other := make([]float32, len(orig))
	for i := range other {
		other[i] = orig[i] + 2
	}
	r.Average(other)
	got := r.Params()
	for i := range got {
		if math.Abs(float64(got[i]-(orig[i]+1))) > 1e-6 {
			t.Fatalf("average wrong at %d", i)
		}
	}
}

func TestReplicaWeightedMerge(t *testing.T) {
	r := testReplica(t, 0)
	orig := r.Params()
	other := make([]float32, len(orig))
	for i := range other {
		other[i] = orig[i] + 3
	}
	// own weight 1, incoming weight 0.5 -> x = (1*x + 0.5*(x+3))/1.5 = x+1
	newW := r.WeightedMerge(1, other, 0.5)
	if math.Abs(newW-1.5) > 1e-12 {
		t.Fatalf("merged weight %v", newW)
	}
	got := r.Params()
	for i := range got {
		if math.Abs(float64(got[i]-(orig[i]+1))) > 1e-5 {
			t.Fatalf("weighted merge wrong at %d: %v vs %v", i, got[i], orig[i]+1)
		}
	}
}

func TestReplicaLocalStepMovesParams(t *testing.T) {
	r := testReplica(t, 0)
	before := r.Params()
	g := r.ComputeGrad()
	r.LocalStep(g, 1, 0.1)
	after := r.Params()
	moved := false
	for i := range after {
		if after[i] != before[i] {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("localStep did not move parameters")
	}
}

// TestReplicaRetire: a retired replica hands back exactly its gradient
// store and its velocity, and holds neither any more — the next pass and
// step get new memory, so writing over the released vectors (as whoever
// they go to next does) changes nothing the replica computes: it goes on
// exactly like a twin whose released vectors were left alone.
func TestReplicaRetire(t *testing.T) {
	a, b := testReplica(t, 0), testReplica(t, 0)
	var released [][]float32
	for _, r := range []*Replica{a, b} {
		g := r.ComputeGrad()
		r.LocalStep(g, 1, 0.1)
		vel := r.localO.Velocity()
		grads, velocity := r.Retire()
		if &grads[0] != &g[0] || len(grads) != len(g) || &velocity[0] != &vel[0] || len(velocity) != len(vel) {
			t.Fatal("Retire did not hand back the gradient store and the velocity")
		}
		released = append(released, grads, velocity)
	}
	for _, v := range released[:2] { // a's
		for i := range v {
			v[i] = float32(math.NaN())
		}
	}
	for _, r := range []*Replica{a, b} {
		g := r.ComputeGrad()
		r.LocalStep(g, 1, 0.1)
		for _, v := range released {
			if &g[0] == &v[0] || &r.localO.Velocity()[0] == &v[0] {
				t.Fatal("a retired replica computes in a vector it released")
			}
		}
	}
	if !slices.EqualFunc(a.Weights(), b.Weights(), func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) }) {
		t.Fatal("writing over the released vectors changed the replica's next step")
	}
	if g, v := newCostReplica().Retire(); g != nil || v != nil {
		t.Fatal("a cost-only replica retired vectors")
	}
}

func TestCostReplicaNoOps(t *testing.T) {
	r := newCostReplica()
	if r.model != nil {
		t.Fatal("cost replica claims math")
	}
	if g := r.ComputeGrad(); g != nil {
		t.Fatal("cost replica produced a gradient")
	}
	if r.iter != 1 {
		t.Fatalf("iter = %d", r.iter)
	}
	// All of these must be safe no-ops on nil state.
	r.LocalStep(nil, 1, 0.1)
	r.SetParams(nil)
	r.Average(nil)
	if w := r.WeightedMerge(1, nil, 0.5); w != 1.5 {
		t.Fatalf("cost merge weight %v", w)
	}
	if p := r.Params(); p != nil {
		t.Fatal("cost replica returned params")
	}
}

func TestReplicaLossEWMA(t *testing.T) {
	r := testReplica(t, 0)
	r.ComputeGrad()
	if !r.lossInit || r.lossEWMA <= 0 {
		t.Fatal("loss EWMA not initialized")
	}
	first := r.lossEWMA
	for i := 0; i < 5; i++ {
		r.ComputeGrad()
	}
	if r.lossEWMA == first {
		t.Fatal("loss EWMA frozen")
	}
}

// TestRestoreResumesAugmentationStream is the restored-augmentation
// identity check: a replica that checkpoints mid-run and a fresh replica
// that restores the checkpoint must produce bit-identical parameters after
// the same subsequent steps, including the data-augmentation draws. Before
// the v2 checkpoint format the restored replica restarted its augmentation
// stream from the fresh split, silently diverging from the trajectory the
// dead worker would have taken.
func TestRestoreResumesAugmentationStream(t *testing.T) {
	r := rng.New(11)
	train := data.GenShapes16(r, 128)
	cfg := &Config{
		Workers:     2,
		Seed:        5,
		Momentum:    0.9,
		WeightDecay: 1e-4,
		Real: &RealConfig{
			Factory: func(r *rng.RNG) *nn.Model { return nn.NewMiniCNN(r, train.Classes) },
			Train:   train,
			Batch:   4,
			Augment: &data.Augment{MaxShift: 2, FlipProb: 0.5},
		},
	}
	const lr, pre, post = 0.05, 3, 4

	newRep := func() *Replica {
		ws, _ := DeriveStreams(cfg.Seed, cfg.Workers)
		return NewReplica(0, cfg, ws[0], InitModel(cfg).Weights())
	}
	a := newRep()
	path := filepath.Join(t.TempDir(), "w0.ckpt")
	for i := 0; i < pre; i++ {
		a.LocalStep(a.ComputeGrad(), 1, lr)
	}
	if err := a.SaveState(path, pre, pre); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < post; i++ {
		a.LocalStep(a.ComputeGrad(), 1, lr)
	}
	want := a.Params()

	b := newRep()
	step, draws, err := b.RestoreState(path)
	if err != nil {
		t.Fatal(err)
	}
	if step != pre || draws != pre {
		t.Fatalf("restore counters: step=%d draws=%d want %d/%d", step, draws, pre, pre)
	}
	for i := 0; i < post; i++ {
		b.LocalStep(b.ComputeGrad(), 1, lr)
	}
	got := b.Params()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("restored trajectory diverged at param %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestCheckpointVelocityOnlyWhereStepped: a replica's optimizer holds a
// velocity only once the replica steps locally. A BSP replica, whose
// parameters the PS overwrites, checkpoints none and restores bit for bit;
// an AR-SGD replica checkpoints its momentum, and the restored replica's
// next steps are the original's, bit for bit.
func TestCheckpointVelocityOnlyWhereStepped(t *testing.T) {
	r := rng.New(21)
	ds := data.GenGauss(r, 200, 3, 0.4)
	cfg := &Config{Workers: 2, Seed: 3, Momentum: 0.9, WeightDecay: 1e-4,
		Real: &RealConfig{Factory: func(rr *rng.RNG) *nn.Model { return nn.NewMLP(rr, 2, 16, 3) }, Train: ds, Batch: 8}}
	newRep := func() *Replica {
		ws, _ := DeriveStreams(cfg.Seed, cfg.Workers)
		return NewReplica(0, cfg, ws[0], InitModel(cfg).Weights())
	}
	same := func(a, b []float32) bool {
		return slices.EqualFunc(a, b, func(x, y float32) bool { return math.Float32bits(x) == math.Float32bits(y) })
	}
	dir := t.TempDir()

	// BSP: gradients go out, parameters come back; nothing steps locally.
	bsp := newRep()
	for i := 0; i < 3; i++ {
		g := bsp.ComputeGrad()
		p := bsp.Params()
		for j := range p {
			p[j] -= 0.05 * g[j]
		}
		bsp.SetParams(p)
	}
	path := filepath.Join(dir, "bsp.ckpt")
	if err := bsp.SaveState(path, 3, 3); err != nil {
		t.Fatal(err)
	}
	st, err := nn.LoadState(path, cfg.Real.Factory(nil))
	if err != nil {
		t.Fatal(err)
	}
	if st.Velocity != nil {
		t.Fatalf("a replica that never stepped checkpointed a %d-entry velocity", len(st.Velocity))
	}
	back := newRep()
	if _, _, err := back.RestoreState(path); err != nil {
		t.Fatal(err)
	}
	if !same(back.Params(), bsp.Params()) || back.localO.Velocity() != nil {
		t.Fatal("the restored BSP replica differs from the checkpointed one")
	}

	// AR-SGD: every step is local, so the momentum is state to restore.
	ar := newRep()
	for i := 0; i < 3; i++ {
		ar.LocalStep(ar.ComputeGrad(), 1, 0.05)
	}
	path = filepath.Join(dir, "arsgd.ckpt")
	if err := ar.SaveState(path, 3, 3); err != nil {
		t.Fatal(err)
	}
	back = newRep()
	if _, _, err := back.RestoreState(path); err != nil {
		t.Fatal(err)
	}
	if !same(back.localO.Velocity(), ar.localO.Velocity()) {
		t.Fatal("the AR-SGD replica's momentum did not survive the checkpoint")
	}
	for i := 0; i < 3; i++ {
		ar.LocalStep(ar.ComputeGrad(), 1, 0.05)
		back.LocalStep(back.ComputeGrad(), 1, 0.05)
	}
	if !same(back.Params(), ar.Params()) {
		t.Fatal("the restored AR-SGD replica's trajectory diverged")
	}
}

// TestDeriveStreamsIndependentOfWorldSize pins the property that lets W
// independent live processes agree with one simulator loop: worker w's
// streams depend only on (seed, w), not on how many workers the world has,
// and they are what setup hands replica w.
func TestDeriveStreamsIndependentOfWorldSize(t *testing.T) {
	const seed = 9
	draw := func(s Streams) [3]uint64 {
		return [3]uint64{s.Shard.Uint64(), s.Jitter.Uint64(), s.Algo.Uint64()}
	}
	big, _ := DeriveStreams(seed, 8)
	var want [8][3]uint64
	for w := range want {
		want[w] = draw(big[w])
	}
	for W := 1; W < 8; W++ {
		ws, _ := DeriveStreams(seed, W)
		for w := range ws {
			if got := draw(ws[w]); got != want[w] {
				t.Fatalf("worker %d of %d: streams %x, of 8: %x", w, W, got, want[w])
			}
		}
	}
	if want[0][0] == want[1][0] || want[0][1] == want[1][1] || want[0][2] == want[1][2] {
		t.Fatal("shard, jitter and algo streams must differ across workers")
	}

	// setup builds replica w from DeriveStreams(seed, W)[w]: a replica built
	// here from a different world size's derivation starts with the same
	// parameters and draws the same first batch.
	r := rng.New(100)
	ds := data.GenGauss(r, 100, 3, 0.3)
	cfg := &Config{
		Algo:     ARSGD,
		Cluster:  cluster.Paper56G(4),
		Workers:  4,
		Workload: costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128),
		Iters:    1,
		Seed:     seed,
		LR:       opt.Schedule{Base: 0.1},
		Real: &RealConfig{
			Factory: func(rr *rng.RNG) *nn.Model { return nn.NewMLP(rr, 2, 4, 3) },
			Train:   ds,
			Test:    ds,
			Batch:   8,
		},
	}
	x, err := setup(cfg)
	if err != nil {
		t.Fatal(err)
	}
	wide, _ := DeriveStreams(seed, 8)
	for w := 0; w < cfg.Workers; w++ {
		got, want := x.reps[w].ComputeGrad(), NewReplica(w, cfg, wide[w], InitModel(cfg).Weights()).ComputeGrad()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("worker %d grad %d: setup's replica %v, fresh %v", w, i, got[i], want[i])
			}
		}
		if x.streams[w].Jitter.Uint64() != wide[w].Jitter.Uint64() || x.streams[w].Algo.Uint64() != wide[w].Algo.Uint64() {
			t.Fatalf("worker %d: setup's jitter/algo streams differ from the derivation", w)
		}
	}
}

// TestOneInitialDraw: a simulated run draws its initial model once — one
// factory call with a stream, replica 0's — and every replica starts from
// InitModel's parameters bit for bit, in a store of its own, on every net
// the CLI names. Hogwild's workers all train replica 0's model.
func TestOneInitialDraw(t *testing.T) {
	ds := data.GenShapes16(rng.New(31), 64)
	for _, net := range []string{"mlp", "minicnn", "miniresnet", "miniresnetbn", "minivgg"} {
		factory, err := nn.FactoryByName(net, ds.Classes, ds.SampleShape())
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algo{BSP, ADPSGD, Hogwild} {
			draws := 0
			cfg := costConfig(algo, 4, 1)
			if algo == Hogwild {
				cfg.Cluster.Machines, cfg.Cluster.WorkersPerMachine = 1, 4
			}
			cfg.Real = &RealConfig{Train: ds, Test: ds, Batch: 4, EvalMax: 4,
				Factory: func(s *rng.RNG) *nn.Model {
					if s != nil {
						draws++
					}
					return factory(s)
				}}
			if _, err := Run(context.Background(), cfg); err != nil {
				t.Fatalf("%s %s: %v", net, algo, err)
			}
			if draws != 1 {
				t.Fatalf("%s %s: the run drew an initial model %d times, want once", net, algo, draws)
			}
			x, err := setup(&cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := InitModel(&cfg).Weights()
			for w, rep := range x.reps {
				if !paramsBitEqual(rep.Weights(), want) {
					t.Fatalf("%s %s: replica %d does not start from InitModel's parameters", net, algo, w)
				}
				if shared := &rep.Weights()[0] == &x.reps[0].Weights()[0]; w > 0 && shared != (algo == Hogwild) {
					t.Fatalf("%s %s: replica %d shares replica 0's store: %v", net, algo, w, shared)
				}
			}
		}
	}
}
