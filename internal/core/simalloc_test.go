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
	"disttrain/internal/rng"
)

// TestSimMessageAllocs is the allocation budget per simulated message of the
// cost-only simulator, where nothing but messages moves: a ring AR-SGD run
// and a sharded SSP run, whose updates queue at the shards. Each case runs
// twice, the second time for more iterations, and the budget holds the
// allocations the longer run adds per message it adds: setup is paid once,
// and a message's storage comes from the run's free list and its inbox slot
// is reused, so only what a run holds in flight at its peak allocates.
func TestSimMessageAllocs(t *testing.T) {
	ring := costConfig(ARSGD, 32, 0)
	ring.Cluster = cluster.Paper10G(32)
	ring.Workload = costmodel.NewWorkload(costmodel.VGG16(), costmodel.TitanV(), 128)
	ssp := costConfig(SSP, 32, 0)
	ssp.Sharding = ShardBalanced
	for _, tc := range []struct {
		name   string
		cfg    Config
		budget float64 // allocations per message
	}{{"arsgd-ring-32w", ring, 0.05}, {"ssp-balanced-32w", ssp, 0.05}} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(iters int) (allocs float64, msgs int64) {
				cfg := tc.cfg
				cfg.Iters = iters
				allocs = testing.AllocsPerRun(3, func() {
					res, err := Run(context.Background(), cfg)
					if err != nil {
						t.Fatal(err)
					}
					msgs = res.Net.TotalMsgs
				})
				return allocs, msgs
			}
			a5, m5 := run(5)
			a20, m20 := run(20)
			per := (a20 - a5) / float64(m20-m5)
			if per > tc.budget {
				t.Fatalf("%.0f → %.0f allocations for %d → %d messages: %.4f per message, budget %v",
					a5, a20, m5, m20, per, tc.budget)
			}
		})
	}
}

// allocVecs runs cfg for short and for long iterations and returns the
// bytes the longer run allocates per worker iteration it adds, in
// model-sized vectors: setup and warm-up are paid alike by both runs.
func allocVecs(t *testing.T, cfg Config, short, long int) float64 {
	t.Helper()
	bytes := func(iters int) uint64 {
		c := cfg
		c.Iters = iters
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Run(context.Background(), c)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	// Signed: where the short run ends with fewer free vectors to lend its
	// report, the longer run can allocate a few bytes less in all.
	added := float64(int64(bytes(long) - bytes(short)))
	vec := float64(4 * cfg.Real.Factory(rng.New(1)).NumParams())
	return added / float64((long-short)*cfg.Workers) / vec
}

// allocConfig is a real-math run on a 265k-parameter MLP, so a
// model-sized vector stands out from the few small ones a simulated
// iteration allocates.
func allocConfig(algo Algo, workers int) Config {
	ds := data.GenGauss(rng.New(100), 100, 3, 0.3)
	cfg := costConfig(algo, workers, 0)
	cfg.Real = &RealConfig{
		Factory: func(r *rng.RNG) *nn.Model { return nn.NewMLP(r, 2, 512, 512, 3) },
		Train:   ds, Test: ds, Batch: 8, EvalEvery: 1 << 20, EvalMax: 8,
	}
	return cfg
}

// TestSSPDGCIterationAllocs is the allocation budget of an SSP worker
// iteration with DGC once the warm-up is over: the local update is built in
// one reused vector, the compressor selects in its own scratch, and the
// request's sparse buffers are k entries — no model-sized vector per
// iteration. The staleness bound is never reached, so no pull's parameter
// reply is counted.
func TestSSPDGCIterationAllocs(t *testing.T) {
	cfg := allocConfig(SSP, 2)
	d := grad.DefaultDGC(0.9, 2)
	cfg.DGC, cfg.Sharding, cfg.Shards, cfg.Staleness = &d, ShardBalanced, 3, 100
	per := allocVecs(t, cfg, 4, 8)
	t.Logf("%.3f model-sized vectors per worker iteration", per)
	if per > 0.25 {
		t.Fatalf("an SSP+DGC worker iteration allocates %.2f model-sized vectors, want none", per)
	}
}

// TestEASGDPushCopies counts the model-sized vectors an EASGD push costs in
// the simulator: none once the run's free list has vectors to lend. The
// worker's copy of its parameters comes from the list, every shard moves
// its own ranges of that one copy and sends it back, and it returns to the
// list when the worker has read the last shard's answer.
func TestEASGDPushCopies(t *testing.T) {
	cfg := allocConfig(EASGD, 2)
	cfg.Tau, cfg.Sharding, cfg.Shards = 1, ShardBalanced, 3
	per := allocVecs(t, cfg, 2, 6)
	t.Logf("%.3f model-sized vectors per push over %d shards", per, cfg.Shards)
	if per > 0.25 {
		t.Fatalf("a push allocates %.2f model-sized vectors over %d shards, want none", per, cfg.Shards)
	}
}

// TestBSPIterationAllocs is the allocation budget of a BSP worker iteration
// over S = 1, 3 and 6 balanced shards: the dense request's private copy and
// every shard's parameter reply come from the run's free list and go back to
// it, so an iteration allocates no model-sized vector (before the free
// list, S+1).
func TestBSPIterationAllocs(t *testing.T) {
	for _, shards := range []int{1, 3, 6} {
		t.Run(fmt.Sprintf("S=%d", shards), func(t *testing.T) {
			cfg := allocConfig(BSP, 2)
			cfg.Sharding, cfg.Shards = ShardBalanced, shards
			per := allocVecs(t, cfg, 4, 8)
			t.Logf("%.3f model-sized vectors per worker iteration", per)
			if per > 0.25 {
				t.Fatalf("a BSP worker iteration over %d shards allocates %.2f model-sized vectors, want none", shards, per)
			}
		})
	}
}

// TestGossipIterationAllocs is the same budget for the decentralized
// algorithms that move whole parameter vectors between workers: AD-PSGD's
// swap and answer, D-PSGD's copy to both ring neighbours, GoSGD's push. Each
// is a copy from the run's free list that its receiver gives back.
func TestGossipIterationAllocs(t *testing.T) {
	for _, tc := range []struct {
		algo    Algo
		workers int
	}{{ADPSGD, 4}, {DPSGD, 2}, {DPSGD, 4}, {GoSGD, 4}} {
		t.Run(fmt.Sprintf("%s-%dw", tc.algo, tc.workers), func(t *testing.T) {
			cfg := allocConfig(tc.algo, tc.workers)
			cfg.GossipP = 1
			per := allocVecs(t, cfg, 8, 24)
			t.Logf("%.3f model-sized vectors per worker iteration", per)
			if per > 0.25 {
				t.Fatalf("a %s worker iteration allocates %.2f model-sized vectors, want none", tc.algo, per)
			}
		})
	}
}

// TestARSGDIterationAllocs is the allocation budget of a real-math AR-SGD
// ring iteration at W = 4, and of a BSP iteration with local aggregation at
// W = 8 (two machines of four), whose gather and broadcast are collectives
// too: every chunk a worker sends is a copy from the run's free list that
// its receiver gives back once folded, so an iteration allocates no
// model-sized vector (before, 1.53 and 1.75).
func TestARSGDIterationAllocs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		algo    Algo
		workers int
		mutate  func(*Config)
	}{
		{"arsgd-ring-4w", ARSGD, 4, func(c *Config) { c.Collective = "ring" }},
		{"bsp-localagg-8w", BSP, 8, func(c *Config) {
			c.LocalAgg = true
			c.Cluster = cluster.Paper56G(8)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := allocConfig(tc.algo, tc.workers)
			tc.mutate(&cfg)
			per := allocVecs(t, cfg, 4, 8)
			t.Logf("%.3f model-sized vectors per worker iteration", per)
			if per > 0.25 {
				t.Fatalf("a %s worker iteration allocates %.2f model-sized vectors, want none", tc.name, per)
			}
		})
	}
}
