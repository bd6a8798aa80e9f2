package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/grad"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
)

// BenchmarkAblationPSRatio reproduces the paper's PS:worker ratio profiling
// (Section VI-D): 1, 2 or 4 PS shards per 4-GPU machine, balanced
// partitioning, cost-only ASP on VGG-16. It reports virtual throughput, not
// host speed; no paperbench preset or bench/ rung varies the shard count per
// machine, which is why it outlived the root benchmark file.
func BenchmarkAblationPSRatio(b *testing.B) {
	for _, perMachine := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("%d:4", perMachine), func(b *testing.B) {
			cfg := costConfig(ASP, 16, 15)
			cfg.Seed = 1
			// On the fast network the PS aggregation rate, not the NIC, is
			// the contended resource — the regime where the ratio matters.
			cfg.Cluster = cluster.Paper56G(16)
			cfg.Workload = costmodel.NewWorkload(costmodel.VGG16(), costmodel.TitanV(), 96)
			cfg.Sharding = ShardBalanced
			cfg.Shards = perMachine * cfg.Cluster.Machines
			var last *Result
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Throughput, "virt-samples/s")
			b.ReportMetric(last.VirtualSec, "virt-sec")
		})
	}
}

// BenchmarkProtocolCostOnly guards the host cost of the worker protocol on the
// simulator, where the protocol code and the simEnv wire under it do all the
// work: the five cost-only cases the sim-cost-mix benchmark workload runs
// (AR-SGD's ring and hierarchical AllReduce chunks, AD-PSGD's exchanges,
// SSP's sharded updates and pulls, ASP's paced sparse pushes), five
// iterations each. It reports host nanoseconds per simulated message and
// allocations per run.
func BenchmarkProtocolCostOnly(b *testing.B) {
	cost := func(algo Algo, workers int, model *costmodel.Profile, gbps func(int) cluster.Config) Config {
		cfg := costConfig(algo, workers, 5)
		cfg.Seed = 1
		cfg.Cluster = gbps(workers)
		cfg.Workload = costmodel.NewWorkload(model, costmodel.TitanV(), 128)
		return cfg
	}
	ring := cost(ARSGD, 128, costmodel.VGG16(), cluster.Paper10G)
	hier := cost(ARSGD, 256, costmodel.ResNet50(), cluster.Paper10G)
	hier.Collective = "hierarchical"
	adpsgd := cost(ADPSGD, 64, costmodel.ResNet50(), cluster.Paper10G)
	ssp := cost(SSP, 128, costmodel.VGG16(), cluster.Paper56G)
	ssp.Sharding = ShardBalanced
	asp := cost(ASP, 64, costmodel.VGG16(), cluster.Paper10G)
	dgc := grad.DefaultDGC(0.9, 1)
	asp.Sharding, asp.WaitFreeBP, asp.DGC = ShardLayerWise, true, &dgc
	for _, tc := range []struct {
		name string
		cfg  Config
	}{{"arsgd-ring-128w", ring}, {"arsgd-hier-256w", hier}, {"adpsgd-64w", adpsgd},
		{"ssp-balanced-128w", ssp}, {"asp-layerwise-wfbp-dgc-64w", asp}} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			var msgs int64
			for i := 0; i < b.N; i++ {
				res, err := Run(context.Background(), tc.cfg)
				if err != nil {
					b.Fatal(err)
				}
				msgs += res.Net.TotalMsgs
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(msgs), "ns/msg")
			b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
		})
	}
}

// BenchmarkSimReal guards the host cost of the simulator around real math:
// 8 MiniVGG workers on shapes16 at batch 16, 10 iterations, the passes on a
// compute pool of GOMAXPROCS goroutines — the BSP and AD-PSGD cases of the
// sim-real-mix benchmark workload. Besides the passes, a run draws its
// initial model and moves whole parameter vectors: parameter-server replies
// and requests, AD-PSGD's swaps. It reports worker steps per host second
// and, with the allocations, the bytes a run allocates.
func BenchmarkSimReal(b *testing.B) {
	r := rng.New(31)
	ds := data.GenShapes16(r, 4000)
	train, test := ds.Split(r.Split(1), 600)
	factory, err := nn.FactoryByName("minivgg", ds.Classes, ds.SampleShape())
	if err != nil {
		b.Fatal(err)
	}
	for _, algo := range []Algo{BSP, ADPSGD} {
		b.Run(string(algo), func(b *testing.B) {
			cfg := costConfig(algo, 8, 10)
			cfg.Seed = 1
			cfg.Cluster = cluster.Paper10G(8)
			cfg.Workload = costmodel.NewWorkload(costmodel.VGG16(), costmodel.TitanV(), 16)
			cfg.LR = opt.Schedule{Base: 0.02}
			cfg.PoolSize = runtime.GOMAXPROCS(0)
			cfg.Real = &RealConfig{Factory: factory, Train: train, Test: test, Batch: 16, EvalEvery: 1 << 20, EvalMax: 100}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*cfg.Workers*cfg.Iters)/b.Elapsed().Seconds(), "steps/s")
		})
	}
}
