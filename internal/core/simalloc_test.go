package core

import (
	"context"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
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
