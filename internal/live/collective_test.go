package live

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/core"
	"disttrain/internal/des"
	"disttrain/internal/grad"
	"disttrain/internal/rng"
	"disttrain/internal/simnet"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// simCollective runs the plan over the simulated network on cl and returns
// every rank's resulting vector. A non-zero codec feeds round-tripped inputs,
// the simulator's model of a quantized contribution.
func simCollective(t *testing.T, pl comm.Plan, cl cluster.Config, inputs [][]float32, codec xport.QuantCodec) [][]float32 {
	t.Helper()
	n := len(inputs)
	eng := des.NewEngine()
	net := simnet.New(eng, cl)
	ids := make([]int, n)
	vecs := make([][]float32, n)
	for i := range ids {
		ids[i] = net.AddNode(cl.MachineOfWorker(i)).ID
		vecs[i] = append([]float32(nil), inputs[i]...)
		switch codec {
		case xport.QuantInt8:
			grad.QuantizeRoundTrip(vecs[i])
		case xport.QuantF16:
			grad.QuantizeF16RoundTrip(vecs[i])
		}
	}
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		i := i
		eng.Spawn("rank", func(p *des.Proc) {
			_, _, errs[i] = comm.Collective(p, comm.CollectiveOpts{Op: pl.Op, Net: net, Nodes: ids, Self: i,
				Vec: vecs[i], Bytes: int64(4 * len(vecs[i])), Kind: int(kindAllReduce), Clock: 1,
				Groups: pl.Groups, TorusRows: pl.TorusRows, TorusCols: pl.TorusCols})
		})
	}
	eng.Run(0)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("sim %v rank %d: %v", pl.Op, i, err)
		}
	}
	if stuck := eng.Stuck(); len(stuck) > 0 {
		t.Fatalf("sim %v stuck: %v", pl.Op, stuck)
	}
	return vecs
}

// liveCollective runs the plan through the live adapter over a channel mesh.
// A non-zero codec ships own-contribution chunks in codec form.
func liveCollective(t *testing.T, pl comm.Plan, inputs [][]float32, codec xport.QuantCodec) [][]float32 {
	t.Helper()
	n := len(inputs)
	mbs, nodes := chanGroup(n)
	vecs := make([][]float32, n)
	errs := make(chan error, n)
	var saved atomic.Int64
	for i := range vecs {
		vecs[i] = append([]float32(nil), inputs[i]...)
		l := &arLink{mb: mbs[i], nodes: nodes, self: i, clock: 1, vec: vecs[i]}
		if codec != 0 {
			l.q = &arQuant{qv: quantizeVec(codec, vecs[i], new([]byte)), codec: codec, saved: &saved,
				span: func(name, cat string) *trace.WallSpan {
					return (*trace.Tracer)(nil).StartSpan(name, cat, workerPid, i)
				}}
		}
		go func(i int) { errs <- pl.Run(l, n, i, len(vecs[i])) }(i)
	}
	for range vecs {
		if err := <-errs; err != nil {
			t.Fatalf("live %v: %v", pl.Op, err)
		}
	}
	return vecs
}

// TestFlatCollectivesBitIdenticalAcrossTransports drives all seven of comm's
// collectives through both implementations of the Link seam — the simulated
// network and the live adapter on a ChanNet — and requires the same bits in
// every rank's vector. Inputs are normal-distributed, so any difference in
// chunk boundaries or fold order shows; lengths below n put empty chunks on
// the rings and empty halves in the butterfly. The int8 and f16 rows ship
// own-contribution chunks in codec form on the live side against
// round-tripped inputs on the simulator's. The worlds give the hierarchical
// AllReduce one machine, a partial last machine (6) and a single-member one
// (5, 9), the butterfly its pre/post fold (3, 5, 6, 9, 12), and the torus
// every grid from 2×2 to 3×4.
func TestFlatCollectivesBitIdenticalAcrossTransports(t *testing.T) {
	for _, codec := range []xport.QuantCodec{0, xport.QuantInt8, xport.QuantF16} {
		for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 9, 12} {
			cl := cluster.Paper56G(n) // machines of 4
			plans := []comm.Plan{{Op: comm.OpGather}, {Op: comm.OpBroadcast}}
			for _, name := range []string{"ring", "tree", "hierarchical", "butterfly", "torus"} {
				pl, err := comm.Resolve(name, cl, n)
				if err != nil {
					if name == "torus" {
						continue // no rectangular grid at this n
					}
					t.Fatal(err)
				}
				plans = append(plans, pl)
			}
			for _, length := range []int{1, n - 1, 7, 1000} {
				if length == 0 {
					continue
				}
				r := rng.New(uint64(1000*n + length))
				inputs := make([][]float32, n)
				for i := range inputs {
					inputs[i] = make([]float32, length)
					for j := range inputs[i] {
						inputs[i][j] = float32(r.NormFloat64())
					}
				}
				for _, pl := range plans {
					name := fmt.Sprintf("%v codec=%d n=%d len=%d", pl.Op, codec, n, length)
					sim := simCollective(t, pl, cl, inputs, codec)
					live := liveCollective(t, pl, inputs, codec)
					for i := range sim {
						for j := range sim[i] {
							if math.Float32bits(sim[i][j]) != math.Float32bits(live[i][j]) {
								t.Fatalf("%s rank %d elem %d: sim %x vs live %x", name, i, j,
									math.Float32bits(sim[i][j]), math.Float32bits(live[i][j]))
							}
						}
					}
				}
			}
		}
	}
}

// requireFoldOrderMatchesSim runs one simulator result against many loopback
// runs of the same AR-SGD config: a receiver that folds what several senders
// race to deliver must fold it in the simulator's order every time, not in
// arrival order.
func requireFoldOrderMatchesSim(t *testing.T, collective string, workers int) {
	t.Helper()
	const runs = 50
	cfg := liveConfig(core.ARSGD, workers, 6, 42)
	cfg.Collective = collective
	sim := simParams(t, cfg)
	for i := 0; i < runs; i++ {
		res, err := RunLoopback(cfg)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		requireBitIdentical(t, sim, res.WorkerParams)
	}
}

// TestLiveTreeFoldOrderMatchesSim is the regression test for the tree
// AllReduce's fold order. With 4 ranks, rank 0 folds rank 1 (round d=1) and
// then rank 2 (round d=2, already carrying rank 3); when every reduce frame
// was tagged Seg 0 it folded whichever arrived first, and about one run in
// four differed from the simulator in the last bit.
func TestLiveTreeFoldOrderMatchesSim(t *testing.T) {
	requireFoldOrderMatchesSim(t, "tree", 4)
}

// TestLiveHierarchicalFoldOrderMatchesSim is the same gate for the gather
// inside the hierarchical AllReduce: with 8 ranks on two machines each
// leader folds three members that send at once, and the two leaders then
// trade partial sums on their ring.
func TestLiveHierarchicalFoldOrderMatchesSim(t *testing.T) {
	requireFoldOrderMatchesSim(t, "hierarchical", 8)
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
			go func(i int) {
				l := &arLink{mb: mbs[i], nodes: nodes, self: i, clock: clock, vec: vecs[i]}
				errs <- comm.Plan{Op: comm.OpRingAllReduce}.Run(l, ranks, i, floats)
			}(i)
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
