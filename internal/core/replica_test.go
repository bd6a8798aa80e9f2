package core

import (
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
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
	return NewReplica(w, cfg, Streams{Init: rng.New(1).Split(1), Shard: rng.New(2)})
}

// TestReplicaFootprint pins how many model-sized vectors a training replica
// holds: parameters, the gradient store backward writes and everything
// downstream reads, and the optimizer's velocity — three, where there were
// six (a per-layer dW scratch, a flattened gradient copy and a parameter
// staging vector on top). Measured as live heap after collection around a
// replica that has trained, merged and stepped, so anything allocated lazily
// is counted; the slack covers activations and batch buffers.
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
	before := live()
	r := NewReplica(0, cfg, Streams{Init: rng.New(1).Split(1), Shard: rng.New(2)})
	other := r.Params()
	for i := 0; i < 2; i++ {
		r.LocalStep(r.ComputeGrad(), 0.5, 0.1)
		r.Average(other)
		r.WeightedMerge(1, other, 1)
	}
	n := len(other)
	other = nil
	held := float64(live()-before) / 4 / float64(n)
	runtime.KeepAlive(r)
	t.Logf("replica of %d parameters holds %.2f model-sized float vectors", n, held)
	if held > 3.1 {
		t.Fatalf("replica holds %.2f model-sized vectors, want 3 (parameters, gradient, velocity)", held)
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
	if !opt.IsFinite(g) {
		t.Fatal("non-finite gradient")
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

func TestCostReplicaNoOps(t *testing.T) {
	r := newCostReplica()
	if r.mathOn() {
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
		return NewReplica(0, cfg, ws[0])
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

// TestDeriveStreamsIndependentOfWorldSize pins the property that lets W
// independent live processes agree with one simulator loop: worker w's
// streams depend only on (seed, w), not on how many workers the world has,
// and they are what setup hands replica w.
func TestDeriveStreamsIndependentOfWorldSize(t *testing.T) {
	const seed = 9
	draw := func(s Streams) [4]uint64 {
		return [4]uint64{s.Init.Uint64(), s.Shard.Uint64(), s.Jitter.Uint64(), s.Algo.Uint64()}
	}
	big, _ := DeriveStreams(seed, 8)
	var want [8][4]uint64
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
	if want[0][0] != want[1][0] {
		t.Fatal("init streams must be identical across workers")
	}
	if want[0][1] == want[1][1] || want[0][2] == want[1][2] || want[0][3] == want[1][3] {
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
		got, want := x.reps[w].ComputeGrad(), NewReplica(w, cfg, wide[w]).ComputeGrad()
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
