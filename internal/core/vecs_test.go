package core

import (
	"math"
	"testing"

	"disttrain/internal/grad"
	"disttrain/internal/tensor"
)

// TestVecsUseAfterRelease runs real-math simulations with every vector a
// lender takes back filled with NaNs, so that a reader who kept a vector
// past its release — a shard reading a request, a worker reading a reply or
// a peer's parameters — would change the bits. Each run must equal the same
// run without the filling, bit for bit in every worker's final parameters,
// and the golden where one pins it. The cases cross every owner of a lent
// vector: BSP's dense request and shared parameter replies at one and three
// shards, SSP's sparse requests, a parameter reply that outlives its
// timeout under drops, an elastic round after a crash, EASGD's one pushed
// copy over three shards, AD-PSGD's swap and answer, D-PSGD's copy to both
// ring neighbours — in a two-worker ring, twice to the one peer — GoSGD's
// push, and the collectives' chunks: AR-SGD's ring, with int8 codes and
// wait-free BP's two buckets too, and local aggregation's gather and
// broadcast.
func TestVecsUseAfterRelease(t *testing.T) {
	dgc := func(c *Config) { d := grad.DefaultDGC(0.9, 2); c.DGC = &d }
	for _, tc := range []struct {
		name    string
		algo    Algo
		workers int
		mutate  func(*Config)
		golden  uint64 // over every worker's final parameters (BSP: worker 0's); 0 = none
	}{
		{"bsp", BSP, 4, nil, goldenParamHashes["minicnn"]},
		{"bsp-balanced-3", BSP, 4, func(c *Config) { c.Sharding, c.Shards = ShardBalanced, 3 }, 0},
		{"ssp-balanced-dgc", SSP, 4, func(c *Config) { dgc(c); c.Sharding, c.Shards = ShardBalanced, 3 },
			goldenHash("ssp-balanced-dgc")},
		{"ssp-layerwise-dgc", SSP, 4, func(c *Config) { dgc(c); c.Sharding, c.Shards = ShardLayerWise, 3 }, 0},
		{"asp-drop", ASP, 8, func(c *Config) {
			c.BarrierTimeoutSec = 0.02 * c.Workload.MeanIterSec()
			c.Faults = goldenFaults(c, "drop@%g:p=0.3:for=%g", 2, 6)
		}, 0},
		{"bsp-elastic-crash", BSP, 4, func(c *Config) {
			c.Elastic = true
			c.Faults = goldenFaults(c, "crash@iter4:w3:restart=%g", 3)
		}, 0},
		{"easgd-balanced-3", EASGD, 4, func(c *Config) { c.Tau, c.Sharding, c.Shards = 2, ShardBalanced, 3 }, 0},
		{"adpsgd", ADPSGD, 4, nil, goldenHash("adpsgd")},
		{"dpsgd-2", DPSGD, 2, nil, 0},
		{"dpsgd", DPSGD, 4, nil, goldenHash("dpsgd")},
		{"gosgd", GoSGD, 4, func(c *Config) { c.GossipP = 0.7 }, 0},
		{"arsgd-ring", ARSGD, 4, nil, 0},
		{"arsgd-wfbp-int8", ARSGD, 4, func(c *Config) { c.WaitFreeBP, c.Quantize8 = true, true }, 0},
		{"bsp-localagg", BSP, 8, func(c *Config) { c.LocalAgg = true }, goldenHash("bsp-localagg")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want := goldenRun(t, tc.algo, tc.workers, "minicnn", tc.mutate)
			was := tensor.PoisonReleased.Swap(true)
			got := goldenRun(t, tc.algo, tc.workers, "minicnn", tc.mutate)
			tensor.PoisonReleased.Store(was)
			// A wait a drop did not cause timed out on a reply still in flight.
			if f := got.Metrics.Faults; tc.name == "asp-drop" && (got.Net.DroppedMsgs == 0 || int64(f.Timeouts) <= got.Net.DroppedMsgs) {
				t.Fatalf("%d timeouts, %d dropped messages: no reply outlived its wait", f.Timeouts, got.Net.DroppedMsgs)
			}
			if !paramsBitEqual(allParams(got), allParams(want)) {
				t.Fatal("the final parameters moved when released vectors were filled with NaNs")
			}
			if math.Float64bits(got.FinalTrainLoss) != math.Float64bits(want.FinalTrainLoss) ||
				got.FinalTestAcc != want.FinalTestAcc {
				t.Fatalf("loss %v acc %v, without the filling %v %v", got.FinalTrainLoss, got.FinalTestAcc,
					want.FinalTrainLoss, want.FinalTestAcc)
			}
			switch {
			case tc.name == "bsp":
				checkGolden(t, tc.name, got.WorkerParams[0], tc.golden)
			case tc.golden != 0:
				checkGolden(t, tc.name, allParams(got), tc.golden)
			}
		})
	}
}

// goldenHash is the pinned hash of a goldenPSHashes or goldenReplicaHashes
// row.
func goldenHash(name string) uint64 {
	for _, r := range goldenPSHashes {
		if r.name == name {
			return r.want
		}
	}
	for _, r := range goldenReplicaHashes {
		if r.name == name {
			return r.want
		}
	}
	panic("no golden row " + name)
}
