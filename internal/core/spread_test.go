package core

import (
	"context"
	"math"
	"runtime"
	"testing"
)

// TestReplicaSpreadOrdering verifies the paper's core causal claim at the
// parameter level: synchronous algorithms keep all replicas identical;
// every-iteration asynchronous aggregation keeps them close; intermittent
// or asymmetric aggregation lets them drift apart. The drift ordering is
// what produces the accuracy ordering of Tables II/III.
func TestReplicaSpreadOrdering(t *testing.T) {
	spread := map[Algo]float64{}
	for _, algo := range []Algo{BSP, ARSGD, ADPSGD, EASGD, GoSGD} {
		cfg := realConfig(algo, 4, 120, 41)
		cfg.Tau = 8
		cfg.GossipP = 0.05
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		spread[algo] = res.ReplicaSpreadL2
	}

	// Synchronous: bit-identical replicas (spread ~ 0 modulo fp noise).
	for _, algo := range []Algo{BSP, ARSGD} {
		if spread[algo] > 1e-5 {
			t.Fatalf("%s replica spread %.2e, want ~0", algo, spread[algo])
		}
	}
	// Rare gossip must leave more divergence than AD-PSGD's every-iteration
	// symmetric averaging.
	if spread[GoSGD] <= spread[ADPSGD] {
		t.Fatalf("GoSGD spread %.3e not above AD-PSGD %.3e", spread[GoSGD], spread[ADPSGD])
	}
	// Everything asynchronous has nonzero spread.
	for _, algo := range []Algo{ADPSGD, EASGD, GoSGD} {
		if spread[algo] == 0 {
			t.Fatalf("%s spread exactly zero", algo)
		}
	}
}

// TestCostOnlySpreadIsZero: no math, no spread.
func TestCostOnlySpreadIsZero(t *testing.T) {
	res, err := Run(context.Background(), costConfig(GoSGD, 4, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplicaSpreadL2 != 0 {
		t.Fatalf("cost-only spread = %v", res.ReplicaSpreadL2)
	}
}

// TestSpreadReadsReplicasInPlace: Run computes ReplicaSpreadL2 from the
// replicas' own stores, and that is bit for bit the spread of the copies a
// CaptureParams run hands out — which are copies, one per worker, even
// where Hogwild's workers share one store. A run without CaptureParams
// hands out none.
func TestSpreadReadsReplicasInPlace(t *testing.T) {
	for _, algo := range []Algo{GoSGD, ADPSGD, Hogwild} {
		cfg := realConfig(algo, 4, 20, 41)
		cfg.GossipP = 0.3
		if algo == Hogwild {
			cfg.Cluster.Machines, cfg.Cluster.WorkersPerMachine = 1, 4
		}
		plain, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cfg.CaptureParams = true
		captured, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain.WorkerParams != nil {
			t.Fatalf("%s: a run without CaptureParams returned parameters", algo)
		}
		want := ReplicaSpread(captured.WorkerParams)
		if math.Float64bits(plain.ReplicaSpreadL2) != math.Float64bits(want) ||
			math.Float64bits(captured.ReplicaSpreadL2) != math.Float64bits(want) {
			t.Fatalf("%s: spread in place %v, captured run's %v, of the copies %v",
				algo, plain.ReplicaSpreadL2, captured.ReplicaSpreadL2, want)
		}
		if algo != Hogwild && want == 0 {
			t.Fatalf("%s: zero spread says nothing", algo)
		}
		for w := 1; w < len(captured.WorkerParams); w++ {
			if &captured.WorkerParams[w][0] == &captured.WorkerParams[0][0] {
				t.Fatalf("%s: worker %d's captured parameters share worker 0's vector", algo, w)
			}
		}
	}
}

// TestRunWithoutCaptureCopiesNoParams counts the model-sized vectors the end
// of a real-math run copies: a run that captures its workers' parameters
// allocates one copy per worker more than the same run without, so the
// latter copies none. AR-SGD lends no whole vector to its free list, so a
// copy there could not have come from it.
func TestRunWithoutCaptureCopiesNoParams(t *testing.T) {
	cfg := allocConfig(ARSGD, 4)
	cfg.Iters = 2
	vec := float64(4 * cfg.Real.Factory(nil).NumParams())
	bytes := func(capture bool) float64 {
		c := cfg
		c.CaptureParams = capture
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Run(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc - before.TotalAlloc)
	}
	bytes(false) // warm-up
	copies := (bytes(true) - bytes(false)) / vec
	t.Logf("capturing the parameters costs %.2f model-sized vectors", copies)
	if copies < float64(cfg.Workers)-0.25 {
		t.Fatalf("capturing %d workers' parameters cost %.2f vectors more than not: the run without copies them too",
			cfg.Workers, copies)
	}
}
