package core

import (
	"bytes"
	"context"
	"testing"

	"disttrain/internal/fault"
)

// poolSummary runs the config at the given compute-pool size and returns the
// exported summary JSON.
func poolSummary(t *testing.T, cfg Config, pool int) []byte {
	t.Helper()
	cfg.PoolSize = pool
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("pool %d: %v", pool, err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPoolSizeBitIdentical is the tentpole's acceptance test: for every one
// of the seven algorithms, and D-PSGD and Hogwild, a fixed-seed real-math
// experiment must export a byte-identical summary whether the replicas'
// forward/backward passes run inline (pool 0) or overlapped on 1, 4 or 8 real
// workers. The simulation may only observe *that* a pass completed at its
// fixed join point, never *when* it really ran. (Four workers fill one
// machine, as Hogwild requires.)
func TestPoolSizeBitIdentical(t *testing.T) {
	for _, algo := range append(Algos(), DPSGD, Hogwild) {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			cfg := realConfig(algo, 4, 40, 5)
			want := poolSummary(t, cfg, 0)
			for _, pool := range []int{1, 4, 8} {
				if got := poolSummary(t, cfg, pool); !bytes.Equal(want, got) {
					t.Fatalf("%s: summary differs between pool 0 and pool %d:\npool 0: %s\npool %d: %s",
						algo, pool, want, pool, got)
				}
			}
		})
	}
}

// TestPoolSizeBitIdenticalWithOptimizations covers the overlap-heavy paths:
// wait-free BP defers the gradient join past extra virtual sleeps (BSP/ASP
// send paths, AR-SGD's split reduce), and DGC consumes the joined gradient
// inside the compressor.
func TestPoolSizeBitIdenticalWithOptimizations(t *testing.T) {
	mk := func(algo Algo) Config {
		cfg := realConfig(algo, 4, 30, 9)
		cfg.WaitFreeBP = true
		cfg.Sharding = ShardBalanced
		if algo == ARSGD {
			cfg.Sharding = ShardNone
		}
		return cfg
	}
	for _, algo := range []Algo{BSP, ASP, ARSGD} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			cfg := mk(algo)
			want := poolSummary(t, cfg, 0)
			for _, pool := range []int{1, 8} {
				if got := poolSummary(t, cfg, pool); !bytes.Equal(want, got) {
					t.Fatalf("%s+wfbp: summary differs between pool 0 and pool %d", algo, pool)
				}
			}
		})
	}
}

// TestPoolSizeBitIdenticalUnderFaults checks the fault-injection interplay:
// crash and slowdown faults perturb the event schedule (restart sleeps,
// stretched compute windows, timeout backstops) while futures are in flight,
// and the realized schedule and exported summary must still be independent
// of the pool size.
func TestPoolSizeBitIdenticalUnderFaults(t *testing.T) {
	for _, algo := range []Algo{ASP, ADPSGD, GoSGD} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			cfg := realConfig(algo, 4, 40, 13)
			mean := cfg.Workload.MeanIterSec()
			cfg.Faults = &fault.Schedule{Events: []fault.Event{
				{Kind: fault.Crash, AtIter: 8, Worker: 1, Restart: 2 * mean},
				{Kind: fault.Slow, At: mean, Worker: 2, Factor: 3, Duration: 10 * mean},
			}}
			want := poolSummary(t, cfg, 1)
			if got := poolSummary(t, cfg, 8); !bytes.Equal(want, got) {
				t.Fatalf("%s under faults: summary differs between pool 1 and pool 8:\npool 1: %s\npool 8: %s",
					algo, want, got)
			}
		})
	}
}
