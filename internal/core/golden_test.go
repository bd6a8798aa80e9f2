package core

import (
	"context"
	"hash/fnv"
	"math"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/grad"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
)

// goldenParamHashes pins the final parameters of a 4-worker, 12-iteration
// real-math BSP run on shapes16 at seed 1, one FNV-1a hash per net over the
// IEEE bit patterns of worker 0's flat parameter vector. The values were
// recorded with the kernels of PR 14 (scalar OutC=8 GEMM tiles, per-element
// im2col/col2im, full input-gradient chain) before the narrow-channel conv
// path replaced them: any kernel or layer change that moves a single bit of
// a training run fails here.
var goldenParamHashes = map[string]uint64{
	"miniresnet":   0x0e44e8485653b060,
	"minivgg":      0xdc23e23acc0856af,
	"minicnn":      0xb60ac3be9a9f05b6,
	"miniresnetbn": 0xb7ef2e2f8a344514,
}

// checkGolden compares the hash of params with want, after making sure the
// run produced numbers: a NaN would pin nothing.
func checkGolden(t *testing.T, name string, params []float32, want uint64) {
	t.Helper()
	for i, v := range params {
		if v != v {
			t.Fatalf("%s: parameter %d is NaN; the golden would pin nothing", name, i)
		}
	}
	if got := hashParams(params); got != want {
		t.Errorf("%s: final-parameter hash %#016x, golden %#016x", name, got, want)
	}
}

// goldenRun is the pinned run: shapes16 at seed 1, 12 iterations, batch 16,
// with mutate applied to the config last.
func goldenRun(t *testing.T, algo Algo, workers int, net string, mutate func(*Config)) *Result {
	t.Helper()
	r := rng.New(31) // seed 1's dataset stream, derived as api's spec → config does
	ds := data.GenShapes16(r, 4000)
	train, test := ds.Split(r.Split(1), 600)
	factory, err := nn.FactoryByName(net, ds.Classes, ds.SampleShape())
	if err != nil {
		t.Fatal(err)
	}
	cfg := costConfig(algo, workers, 12)
	cfg.Seed = 1
	cfg.WeightDecay = 1e-4
	cfg.LR = opt.Schedule{Base: 0.05}
	cfg.Real = &RealConfig{Factory: factory, Train: train, Test: test, Batch: 16}
	cfg.CaptureParams = true
	if mutate != nil {
		mutate(&cfg)
	}
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s %s: %v", algo, net, err)
	}
	if algo == BSP || algo == ARSGD {
		for w := 1; w < len(res.WorkerParams); w++ {
			if !paramsBitEqual(res.WorkerParams[0], res.WorkerParams[w]) {
				t.Fatalf("%s: BSP replicas diverged at worker %d", net, w)
			}
		}
	}
	return res
}

func hashParams(p []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range p {
		u := math.Float32bits(v)
		b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
		h.Write(b[:])
	}
	return h.Sum64()
}

// goldenPSHashes pins the parameter-server paths no `disttrain -json` diff
// watches to the last bit, on minicnn: BSP with local aggregation at four
// workers per machine (gather fold + shard fold), BSP with DGC (the sparse
// shard fold) and ASP with staleness damping (no CLI flag). Each hash covers
// every worker's final vector in rank order. Recorded at PR 15's commit,
// before the shard loops moved into internal/ps.
var goldenPSHashes = []struct {
	name    string
	algo    Algo
	workers int
	mutate  func(*Config)
	want    uint64
}{
	{"bsp-localagg", BSP, 8, func(c *Config) { c.LocalAgg = true }, 0xad4aa7a000e85eb5},
	{"bsp-dgc", BSP, 4, func(c *Config) { d := grad.DefaultDGC(0.9, 2); c.DGC = &d }, 0x5920dae3a0e62e75},
	{"asp-damping", ASP, 4, func(c *Config) { c.StalenessDamping = true }, 0x4569d6b187898d81},
}

// goldenDenseHashes pins what no conv net reaches: GEMMs with at most 8 rows
// (batch 8, and batch 5 for a ragged row count) whose k = 256 and 512 span
// several k blocks, and AR-SGD's average-then-step. The net is dense only —
// Flatten → DenseReLU 256×512 → DenseReLU 512×64 → Dense 64×classes — on the
// pinned shapes16 run at 4 workers; each hash covers worker 0's final vector
// (the run checks every other worker holds the same bits). Recorded at PR
// 16's commit, before the flat gradient store, the skinny GEMM paths and the
// fused average+SGD step existed.
var goldenDenseHashes = []struct {
	name  string
	algo  Algo
	batch int
	want  uint64
}{
	{"bsp-batch8", BSP, 8, 0xd7e277d2d63c0fd4},
	{"bsp-batch5", BSP, 5, 0x590b78cf82711613},
	{"arsgd-batch8", ARSGD, 8, 0x9e1e950657ad2b37},
	{"arsgd-batch5", ARSGD, 5, 0x821f16fa7b36e5fe},
}

func goldenDenseNet(classes int) nn.ModelFactory {
	return func(r *rng.RNG) *nn.Model {
		return nn.NewModel("densegolden",
			nn.NewFlatten("flat"),
			nn.NewDenseReLU("fc0", 256, 512, r),
			nn.NewDenseReLU("fc1", 512, 64, r),
			nn.NewDense("fc2", 64, classes, r),
		)
	}
}

// TestGoldenFinalParams: the end-to-end bit-identity gate across PRs.
func TestGoldenFinalParams(t *testing.T) {
	for net, want := range goldenParamHashes {
		checkGolden(t, net, goldenRun(t, BSP, 4, net, nil).WorkerParams[0], want)
	}
	for _, r := range goldenDenseHashes {
		res := goldenRun(t, r.algo, 4, "minicnn", func(c *Config) {
			c.Real.Factory = goldenDenseNet(c.Real.Train.Classes)
			c.Real.Batch = r.batch
		})
		checkGolden(t, r.name, res.WorkerParams[0], r.want)
	}
	for _, r := range goldenPSHashes {
		res := goldenRun(t, r.algo, r.workers, "minicnn", r.mutate)
		var all []float32
		for _, p := range res.WorkerParams {
			all = append(all, p...)
		}
		checkGolden(t, r.name, all, r.want)
	}
}
