package live

import (
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/core"
	"disttrain/internal/des"
	"disttrain/internal/grad"
	"disttrain/internal/metrics"
	"disttrain/internal/rng"
	"disttrain/internal/simnet"
	"disttrain/internal/xport"
)

// reduces reports whether pl sums a vector over every member: the
// collectives whose own contributions a codec compresses. A gather and a
// broadcast ship dense.
func reduces(pl comm.Plan) bool { return pl.Op != comm.OpGather && pl.Op != comm.OpBroadcast }

// simCollective runs the plan over the simulated network on cl and returns
// every rank's resulting vector. Under a non-zero codec an AllReduce is fed
// round-tripped inputs, the simulator's model of a quantized contribution.
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
		switch {
		case !reduces(pl):
		case codec == xport.QuantInt8:
			grad.Quantize8RoundTripInto(vecs[i], nil)
		case codec == xport.QuantF16:
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

// collectiveWorkers builds a bare worker on each endpoint: as much of one as
// a collective reads through its core.Env — the mailbox, the wire codec and
// the ledger.
func collectiveWorkers(eps []xport.Endpoint, codec xport.QuantCodec) []*worker {
	ws := make([]*worker, len(eps))
	for i, ep := range eps {
		ws[i] = &worker{rank: i, ep: ep, mb: new(core.Mailbox), codec: codec,
			l: core.NewLedger(new(metrics.Breakdown), nil, func() float64 { return 0 }, workerPid, i)}
	}
	return ws
}

// codecConfig is what a collective reads of a run's config: its gradient
// codec.
func codecConfig(codec xport.QuantCodec) *core.Config {
	return &core.Config{Quantize8: codec == xport.QuantInt8, QuantizeF16: codec == xport.QuantF16}
}

// liveCollective runs the plan through the worker protocol's collectives
// (core.Collective) on live workers over a pipe mesh. Under a non-zero
// codec an AllReduce's own-contribution chunks travel in codec form; it
// reports whether any chunk saved bytes that way.
func liveCollective(t *testing.T, pl comm.Plan, inputs [][]float32, codec xport.QuantCodec) ([][]float32, bool) {
	t.Helper()
	n := len(inputs)
	cn := xport.NewChanNet(n)
	eps := make([]xport.Endpoint, n)
	nodes := make([]int, n)
	for i := range eps {
		eps[i], nodes[i] = cn.Endpoint(i), i
		defer eps[i].Close()
	}
	ws := collectiveWorkers(eps, codec)
	cfg := codecConfig(codec)
	vecs := make([][]float32, n)
	errs := make(chan error, n)
	for i := range vecs {
		vecs[i] = append([]float32(nil), inputs[i]...)
		go func(i int) { errs <- core.Collective(ws[i], cfg, pl, 1, nodes, i, vecs[i]) }(i)
	}
	for range vecs {
		if err := <-errs; err != nil {
			t.Fatalf("live %v: %v", pl.Op, err)
		}
	}
	coded := false
	for _, w := range ws {
		coded = coded || w.saved.Load() != 0
	}
	return vecs, coded
}

// TestFlatCollectivesBitIdenticalAcrossTransports drives all seven of comm's
// collectives through the worker protocol's link on live workers over a
// ChanNet and through comm.Collective on the simulated network, and requires
// the same bits in every rank's vector. Inputs are normal-distributed, so any
// difference in chunk boundaries or fold order shows; lengths below n put
// empty chunks on the rings and empty halves in the butterfly. In the int8
// and f16 rows the live AllReduces round-trip their inputs and ship
// own-contribution chunks in codec form, against round-tripped inputs on the
// simulator's side; a gather and a broadcast stay dense on both. The worlds
// give the hierarchical AllReduce one machine, a partial last machine (6) and
// a single-member one (5, 9), the butterfly its pre/post fold (3, 5, 6, 9,
// 12), and the torus every grid from 2×2 to 3×4.
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
					live, coded := liveCollective(t, pl, inputs, codec)
					// Long enough a vector that every codec chunk saves bytes.
					if want := codec != 0 && reduces(pl) && n > 1; length == 1000 && coded != want {
						t.Fatalf("%s: chunks in codec form %v, want %v", name, coded, want)
					}
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
// vector, run by the worker protocol's collective on live workers, allocates
// under 64 KB per rank per round — frame headers and write vectors, not
// chunks. One staging copy of one chunk would be 1 MB.
func TestRingAllReduceAllocationBudget(t *testing.T) {
	const (
		ranks  = 4
		floats = 1 << 20
		warm   = 3
		rounds = 10
		budget = 64 << 10
	)
	nodes := make([]int, ranks)
	addrs := make([]string, ranks)
	tcps := make([]*xport.TCPNet, ranks)
	eps := make([]xport.Endpoint, ranks)
	for i := range eps {
		ep, err := xport.ListenTCP(i, ranks, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		tcps[i], eps[i], addrs[i], nodes[i] = ep, ep, ep.Addr(), i
	}
	ws := collectiveWorkers(eps, 0)
	cfg := codecConfig(0)
	vecs := make([][]float32, ranks)
	for i, ep := range tcps {
		ep.SetPeers(addrs)
		vecs[i] = make([]float32, floats)
	}
	// Steady state means the lender keeps what it was given: hold the
	// collector off from the warm-up on, so that no cycle, not even one
	// already under way, empties it before the measured rounds (they produce
	// next to nothing for it to collect — which is the claim).
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	round := func(clock int) {
		errs := make(chan error, ranks)
		for i := 0; i < ranks; i++ {
			go func(i int) {
				errs <- core.Collective(ws[i], cfg, comm.Plan{Op: comm.OpRingAllReduce}, clock, nodes, i, vecs[i])
			}(i)
		}
		for i := 0; i < ranks; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: %v", clock, err)
			}
		}
	}
	for c := 1; c <= warm; c++ {
		round(c)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for c := warm + 1; c <= warm+rounds; c++ {
		round(c)
	}
	runtime.ReadMemStats(&after)
	perRankRound := (after.TotalAlloc - before.TotalAlloc) / (ranks * rounds)
	t.Logf("%d bytes allocated per rank per round", perRankRound)
	if perRankRound > budget {
		t.Fatalf("ring AllReduce allocates %d bytes per rank per round, budget %d", perRankRound, budget)
	}
}

// TestLiveQuantizedRingWireBytesPinned pins what a quantized ring AllReduce
// puts on the wire: every rank's frames, bytes and codec savings over a fixed
// four-rank run. An own-contribution chunk ships its slice of the codes the
// whole vector's round trip wrote, with that vector's scale, so its frame
// must be byte for byte the slice of the whole vector's codes.
func TestLiveQuantizedRingWireBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		codec                string
		frames, bytes, saved [4]int
	}{
		{"int8", [4]int{36, 36, 36, 36}, [4]int{4758, 4740, 4764, 4764}, [4]int{378, 396, 396, 396}},
		{"f16", [4]int{36, 36, 36, 36}, [4]int{4902, 4890, 4914, 4914}, [4]int{234, 246, 246, 246}},
	} {
		cfg := liveConfig(core.ARSGD, 4, 6, 42)
		cfg.Quantize8, cfg.QuantizeF16 = tc.codec == "int8", tc.codec == "f16"
		m := NewMetrics()
		if _, err := RunLoopback(cfg, WithMetrics(m)); err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := m.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		for r := 0; r < cfg.Workers; r++ {
			for _, c := range []struct {
				family string
				want   int
			}{
				{"disttrain_xport_frames_sent_total", tc.frames[r]},
				{"disttrain_xport_bytes_sent_total", tc.bytes[r]},
				{"disttrain_live_compressed_bytes_saved_total", tc.saved[r]},
			} {
				sample := fmt.Sprintf("%s{rank=\"%d\"} %d\n", c.family, r, c.want)
				if !strings.Contains(buf.String(), sample) {
					t.Fatalf("%s: want %q in\n%s", tc.codec, sample, buf.String())
				}
			}
		}
	}
}

// TestLiveQuantizedPSWireBytesPinned pins what a quantized BSP run puts on the
// wire: every worker's gradient frames in the codec, and the parameter
// server's dense replies (rank 4), frames, bytes and codec savings per rank
// over a fixed four-worker run.
func TestLiveQuantizedPSWireBytesPinned(t *testing.T) {
	for _, tc := range []struct {
		codec         string
		frames, bytes [5]int
		saved         [4]int
	}{
		{"int8", [5]int{7, 7, 7, 7, 24}, [5]int{956, 956, 956, 956, 10560}, [4]int{1728, 1728, 1728, 1728}},
		{"f16", [5]int{7, 7, 7, 7, 24}, [5]int{1550, 1550, 1550, 1550, 10560}, [4]int{1134, 1134, 1134, 1134}},
	} {
		cfg := liveConfig(core.BSP, 4, 6, 42)
		cfg.Quantize8, cfg.QuantizeF16 = tc.codec == "int8", tc.codec == "f16"
		m := NewMetrics()
		if _, err := RunLoopback(cfg, WithMetrics(m)); err != nil {
			t.Fatal(err)
		}
		var buf strings.Builder
		if err := m.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		for r := 0; r <= cfg.Workers; r++ {
			want := map[string]int{
				"disttrain_xport_frames_sent_total": tc.frames[r],
				"disttrain_xport_bytes_sent_total":  tc.bytes[r],
			}
			if r < cfg.Workers {
				want["disttrain_live_compressed_bytes_saved_total"] = tc.saved[r]
			}
			for family, n := range want {
				sample := fmt.Sprintf("%s{rank=\"%d\"} %d\n", family, r, n)
				if !strings.Contains(buf.String(), sample) {
					t.Errorf("%s: want %q", tc.codec, sample)
				}
			}
		}
		if t.Failed() {
			t.Fatalf("in\n%s", buf.String())
		}
	}
}
