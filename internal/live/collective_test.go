package live

import (
	"runtime"
	"runtime/debug"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/xport"
)

// TestLiveTreeFoldOrderMatchesSim is the regression test for the tree
// AllReduce's fold order. With 4 ranks, rank 0 folds rank 1 (round d=1) and
// then rank 2 (round d=2, already carrying rank 3); when every reduce frame
// was tagged Seg 0 it folded whichever arrived first, and about one run in
// four differed from the simulator in the last bit. One simulator result,
// many live runs: every one must match.
func TestLiveTreeFoldOrderMatchesSim(t *testing.T) {
	const runs = 50
	cfg := liveConfig(core.ARSGD, 4, 6, 42)
	cfg.TreeAllReduce = true
	sim := simParams(t, cfg)
	for i := 0; i < runs; i++ {
		res, err := RunLoopback(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		requireBitIdentical(t, sim, res.WorkerParams)
	}
}

// TestRingAllReduceAllocationBudget holds the live data plane to its
// copy-free contract: in steady state a TCP ring AllReduce of a 1 M-float
// vector allocates under 64 KB per rank per round — frame headers and
// write vectors, not chunks. One staging copy of one chunk would be 1 MB.
func TestRingAllReduceAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	const (
		ranks  = 4
		floats = 1 << 20
		warm   = 3
		rounds = 10
		budget = 64 << 10
	)
	mbs := make([]*mailbox, ranks)
	nodes := make([]int, ranks)
	addrs := make([]string, ranks)
	eps := make([]*xport.TCPNet, ranks)
	for i := range eps {
		ep, err := xport.ListenTCP(i, ranks, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i], addrs[i], nodes[i], mbs[i] = ep, ep.Addr(), i, newMailbox(ep)
	}
	vecs := make([][]float32, ranks)
	for i, ep := range eps {
		ep.SetPeers(addrs)
		vecs[i] = make([]float32, floats)
	}
	round := func(clock int32) {
		errs := make(chan error, ranks)
		for i := 0; i < ranks; i++ {
			go func(i int) { errs <- ringAllReduce(mbs[i], nodes, i, clock, vecs[i], nil) }(i)
		}
		for i := 0; i < ranks; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", clock, err)
			}
		}
	}
	for c := 1; c <= warm; c++ {
		round(int32(c))
	}
	// Steady state means the recycler keeps what it was given: hold the
	// collector off for the measured rounds (they produce next to nothing
	// for it to collect — which is the claim).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := warm + 1; c <= warm+rounds; c++ {
		round(int32(c))
	}
	runtime.ReadMemStats(&after)
	perRankRound := (after.TotalAlloc - before.TotalAlloc) / (ranks * rounds)
	t.Logf("%d bytes allocated per rank per round", perRankRound)
	if perRankRound > budget {
		t.Fatalf("ring AllReduce allocates %d bytes per rank per round, budget %d", perRankRound, budget)
	}
}
