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

func goldenParams(t *testing.T, net string) []float32 {
	t.Helper()
	res := goldenRun(t, BSP, 4, net, nil)
	for i, v := range res.WorkerParams[0] {
		if v != v {
			t.Fatalf("%s: parameter %d is NaN; the golden would pin nothing", net, i)
		}
	}
	return res.WorkerParams[0]
}

// goldenRun is the pinned run: shapes16 at seed 1, 12 iterations, batch 16,
// with mutate applied to the config last.
func goldenRun(t *testing.T, algo Algo, workers int, net string, mutate func(*Config)) *Result {
	t.Helper()
	r := rng.New(31) // seed 1's dataset stream, derived as api's spec → config does
	ds := data.GenShapes16(r, 4000)
	train, test := ds.Split(r.Split(1), 600)
	factory, err := nn.FactoryByName(net, ds.Classes)
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
	if algo == BSP {
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

// TestGoldenFinalParams: the end-to-end bit-identity gate across PRs.
func TestGoldenFinalParams(t *testing.T) {
	for _, net := range []string{"miniresnet", "minivgg", "minicnn", "miniresnetbn"} {
		got := hashParams(goldenParams(t, net))
		if want := goldenParamHashes[net]; got != want {
			t.Errorf("%s: final-parameter hash %#016x, golden %#016x", net, got, want)
		}
	}
	for _, r := range goldenPSHashes {
		res := goldenRun(t, r.algo, r.workers, "minicnn", r.mutate)
		var all []float32
		for _, p := range res.WorkerParams {
			all = append(all, p...)
		}
		for i, v := range all {
			if v != v {
				t.Fatalf("%s: parameter %d is NaN; the golden would pin nothing", r.name, i)
			}
		}
		if got := hashParams(all); got != r.want {
			t.Errorf("%s: final-parameter hash %#016x, golden %#016x", r.name, got, r.want)
		}
	}
}
