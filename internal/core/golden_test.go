package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/fault"
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

// goldenVirtualRows are cost-only runs whose whole virtual-time outcome is
// pinned to the bit: the event engine may change how it runs, never what the
// simulated cluster does. Together they cross every algorithm loop, the five
// collectives, sharded and layer-wise parameter servers with WFBP and DGC,
// local aggregation, and the fault paths that depend on stale wake-ups being
// skipped (timeout backstops that lose, and win, their race). Recorded at
// PR 17's commit (c7d21b3), on the goroutine-per-process engine over container/heap
// — except arsgd-hierarchical-64 and arsgd-butterfly-64, re-recorded at PR 20,
// which ported the topology collectives onto comm.Link: a chunk's wire bytes
// now come from its element range (Bytes·(hi−lo)/vlen, as the flat ring's
// always have) instead of its chunk index, so where 25 557 032 elements do
// not divide evenly a chunk is a few bytes larger or smaller and NIC bookings
// re-order (hierarchical +1.2e-8 relative in virtual time; butterfly +0.17 %
// and +1 byte per rank-round that the old Bytes/(2<<t) floor dropped). Same
// message counts and phase order; torus-64's 8×8 grid divides evenly.
var goldenVirtualRows = []struct {
	name    string
	algo    Algo
	workers int
	mutate  func(*Config)
	want    uint64
}{
	{"bsp-24", BSP, 24, nil, 0xb45723f74fccad25},
	{"asp-24", ASP, 24, nil, 0xcf62ac27f1b7472f},
	{"ssp-24", SSP, 24, nil, 0x90d37fda2a861e69},
	{"easgd-24", EASGD, 24, nil, 0xb6913de3831a45ee},
	{"arsgd-24", ARSGD, 24, nil, 0x954191e9d37b57bd},
	{"gosgd-24", GoSGD, 24, nil, 0x8996067ba984b039},
	{"adpsgd-24", ADPSGD, 24, nil, 0x7d0d4bb6d7754e6f},
	{"arsgd-ring-64", ARSGD, 64, func(c *Config) { c.Collective = "ring" }, 0x719a7726d996d6d9},
	{"arsgd-tree-64", ARSGD, 64, func(c *Config) { c.Collective = "tree" }, 0x794ad31c9ea0eef1},
	{"arsgd-hierarchical-64", ARSGD, 64, func(c *Config) { c.Collective = "hierarchical" }, 0x41bada580522ec0d},
	{"arsgd-butterfly-64", ARSGD, 64, func(c *Config) { c.Collective = "butterfly" }, 0xddef4f2dadaf2364},
	{"arsgd-torus-64", ARSGD, 64, func(c *Config) { c.Collective = "torus" }, 0x037e84be629a3433},
	{"ssp-balanced-32", SSP, 32, func(c *Config) { c.Sharding = ShardBalanced }, 0x51283b600fe31114},
	{"asp-layerwise-wfbp-dgc-16", ASP, 16, func(c *Config) {
		d := grad.DefaultDGC(0.999, 4)
		c.Sharding, c.WaitFreeBP, c.DGC = ShardLayerWise, true, &d
	}, 0xf5c9453a699e440a},
	{"bsp-localagg-16", BSP, 16, func(c *Config) { c.LocalAgg = true }, 0xbb641c35ed192840},
	{"bsp-elastic-crash-restart-16", BSP, 16, func(c *Config) {
		c.Elastic = true
		c.Faults = goldenFaults(c, "crash@iter6:w3:restart=%g", 3)
	}, 0xbc363f85eda24bd3},
	{"asp-partition-timeout-16", ASP, 16, func(c *Config) {
		c.BarrierTimeoutSec = 2 * c.Workload.MeanIterSec()
		c.Faults = goldenFaults(c, "partition@%g:m1:for=%g", 4, 5)
	}, 0xce9d263d5c134931},
	{"ssp-slow-straggler-16", SSP, 16, func(c *Config) {
		c.Faults = goldenFaults(c, "slow@%g:w2:x4:for=%g", 2, 8)
	}, 0x7855340ec9ef4718},
	{"adpsgd-partition-16", ADPSGD, 16, func(c *Config) {
		c.Faults = goldenFaults(c, "partition@%g:m1:for=%g", 4, 5)
	}, 0xae45548e0b543ef5},
}

// goldenFaults parses a fault spec whose times are given in mean iterations.
func goldenFaults(c *Config, format string, iters ...float64) *fault.Schedule {
	args := make([]any, len(iters))
	for i, n := range iters {
		args[i] = n * c.Workload.MeanIterSec()
	}
	s, err := fault.ParseSpec(fmt.Sprintf(format, args...))
	if err != nil {
		panic(err)
	}
	return s
}

// hashVirtual folds everything virtual a cost-only run reports into one
// FNV-1a hash over IEEE bit patterns and counters.
func hashVirtual(res *Result) uint64 {
	h := fnv.New64a()
	put := func(u uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	putF := func(f float64) { put(math.Float64bits(f)) }
	putF(res.VirtualSec)
	for _, w := range res.Metrics.Workers {
		putF(w.FinishedAt)
		put(uint64(w.Iters))
		for _, sec := range w.Breakdown {
			putF(sec)
		}
	}
	put(uint64(res.Net.TotalBytes))
	put(uint64(res.Net.TotalMsgs))
	put(uint64(res.Net.CrossMachineBytes))
	for m := range res.Net.IngressBusySec {
		putF(res.Net.IngressBusySec[m])
		putF(res.Net.EgressBusySec[m])
	}
	return h.Sum64()
}

// TestGoldenVirtualTime: the same-event-trace gate for the simulator. Only
// paperbench_quick.txt pinned virtual time before, at print precision.
func TestGoldenVirtualTime(t *testing.T) {
	for _, r := range goldenVirtualRows {
		cfg := costConfig(r.algo, r.workers, 20)
		if r.mutate != nil {
			r.mutate(&cfg)
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		if res.VirtualSec <= 0 || res.Net.TotalMsgs == 0 {
			t.Fatalf("%s: virtual time %g after %d messages; the golden would pin nothing",
				r.name, res.VirtualSec, res.Net.TotalMsgs)
		}
		if got := hashVirtual(res); got != r.want {
			t.Errorf("%s: virtual-time hash %#016x, golden %#016x (timeouts %d, crashes %d, dropped %d)", r.name, got, r.want,
				res.Metrics.Faults.Timeouts, res.Metrics.Faults.Crashes, res.Net.DroppedMsgs)
		}
	}
}
