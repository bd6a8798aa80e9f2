package live

import (
	"context"
	"fmt"
	"math"
	"net"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"disttrain/internal/cluster"
	"disttrain/internal/core"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/fault"
	"disttrain/internal/grad"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
	"disttrain/internal/xport"
)

// liveConfig builds a small real-math config shared by the simulator and
// the live runtime: MLP on Gaussian clusters, paper-scale timing model.
func liveConfig(algo core.Algo, workers, iters int, seed uint64) core.Config {
	r := rng.New(seed + 1000)
	ds := data.GenGauss(r, 600, 3, 0.45)
	train, test := ds.Split(r.Split(1), 120)
	cfg := core.Config{
		Algo:     algo,
		Cluster:  cluster.Paper56G(workers),
		Workers:  workers,
		Workload: costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128),
		Iters:    iters,
		Seed:     seed,
		Momentum: 0.9,
		LR:       opt.Schedule{Base: 0.05},
		Real: &core.RealConfig{
			Factory: func(rr *rng.RNG) *nn.Model { return nn.NewMLP(rr, 2, 16, 3) },
			Train:   train,
			Test:    test,
			Batch:   16,
		},
	}
	switch algo {
	case core.SSP:
		cfg.Staleness = 3
	case core.EASGD:
		cfg.Tau = 4
	case core.GoSGD:
		cfg.GossipP = 0.5
	}
	return cfg
}

// liveConvConfig is liveConfig on a task that does not saturate: MiniCNN on
// the 16×16 shapes, where after a few iterations the test accuracy still
// depends on which parameters were evaluated — liveConfig's MLP reads 1.0
// whatever happens.
func liveConvConfig(algo core.Algo, workers, iters int, seed uint64) core.Config {
	cfg := liveConfig(algo, workers, iters, seed)
	r := rng.New(seed + 2000)
	ds := data.GenShapes16(r, 700)
	cfg.Real.Train, cfg.Real.Test = ds.Split(r.Split(1), 250)
	cfg.Real.Factory = func(rr *rng.RNG) *nn.Model { return nn.NewMiniCNN(rr, ds.Classes) }
	cfg.Real.Batch = 8
	return cfg
}

// simRun runs the simulator with parameter capture.
func simRun(t *testing.T, cfg core.Config) *core.Result {
	t.Helper()
	cfg.CaptureParams = true
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	if len(res.WorkerParams) != cfg.Workers {
		t.Fatalf("sim captured %d param vectors, want %d", len(res.WorkerParams), cfg.Workers)
	}
	return res
}

// simParams returns the simulator's per-worker final parameters.
func simParams(t *testing.T, cfg core.Config) [][]float32 {
	t.Helper()
	return simRun(t, cfg).WorkerParams
}

// requireSameReport fails unless the live run's final parameters, test
// accuracy and training loss are the simulator's bit for bit: a live summary
// reports the numbers the simulator reports.
func requireSameReport(t *testing.T, sim *core.Result, live *Result) {
	t.Helper()
	requireBitIdentical(t, sim.WorkerParams, live.WorkerParams)
	if math.Float64bits(sim.FinalTestAcc) != math.Float64bits(live.FinalTestAcc) {
		t.Fatalf("final test accuracy: sim %v vs live %v", sim.FinalTestAcc, live.FinalTestAcc)
	}
	if math.Float64bits(sim.FinalTrainLoss) != math.Float64bits(live.FinalTrainLoss) {
		t.Fatalf("final train loss: sim %v vs live %v", sim.FinalTrainLoss, live.FinalTrainLoss)
	}
}

// requireBitIdentical fails unless every worker's live parameters match
// the simulator's bit for bit.
func requireBitIdentical(t *testing.T, sim, live [][]float32) {
	t.Helper()
	if len(sim) != len(live) {
		t.Fatalf("worker count: sim %d vs live %d", len(sim), len(live))
	}
	for w := range sim {
		if len(sim[w]) != len(live[w]) {
			t.Fatalf("worker %d: param count sim %d vs live %d", w, len(sim[w]), len(live[w]))
		}
		for i := range sim[w] {
			if math.Float32bits(sim[w][i]) != math.Float32bits(live[w][i]) {
				t.Fatalf("worker %d param %d: sim %x vs live %x (%g vs %g)",
					w, i, math.Float32bits(sim[w][i]), math.Float32bits(live[w][i]),
					sim[w][i], live[w][i])
			}
		}
	}
}

// TestLiveBSPBitIdenticalToSim is the determinism contract's anchor: BSP
// over real loopback TCP with 4 workers must reproduce the simulator's
// final parameters exactly, at the same config and seed.
func TestLiveBSPBitIdenticalToSim(t *testing.T) {
	cfg := liveConfig(core.BSP, 4, 6, 42)
	sim := simParams(t, cfg)
	res, err := RunLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, sim, res.WorkerParams)
	if res.WallSec <= 0 || res.Throughput <= 0 {
		t.Fatalf("wall=%v throughput=%v", res.WallSec, res.Throughput)
	}
	if res.Net.FramesSent == 0 || res.Net.BytesSent == 0 {
		t.Fatalf("no transport traffic recorded: %+v", res.Net)
	}

	conv := liveConvConfig(core.BSP, 4, 6, 42)
	res, err = RunLoopback(conv)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, simRun(t, conv), res)
}

// TestLiveQuantizedBSPBitIdenticalToSim is the quantized-wire contract: a
// BSP loopback run whose gradient frames travel as int8 or fp16 codec
// payloads must reproduce the simulator's QuantizeRoundTrip model bit for
// bit, and the per-rank compressed_bytes_saved counters must account for
// the dense-versus-codec frame difference.
func TestLiveQuantizedBSPBitIdenticalToSim(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*core.Config)
	}{
		{"int8", func(c *core.Config) { c.Quantize8 = true }},
		{"f16", func(c *core.Config) { c.QuantizeF16 = true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(core.BSP, 4, 6, 42)
			tc.mut(&cfg)
			sim := simParams(t, cfg)
			m := NewMetrics()
			res, err := RunLoopback(cfg, WithMetrics(m))
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, sim, res.WorkerParams)
			var buf strings.Builder
			if err := m.WriteProm(&buf); err != nil {
				t.Fatal(err)
			}
			for w := 0; w < cfg.Workers; w++ {
				needle := fmt.Sprintf("disttrain_live_compressed_bytes_saved_total{rank=\"%d\"}", w)
				if !strings.Contains(buf.String(), needle) {
					t.Fatalf("metrics missing %s:\n%s", needle, buf.String())
				}
			}
		})
	}
}

// TestLiveQuantizedARSGDBitIdenticalToSim runs the quantized AllReduce
// paths: each worker's contribution is round-tripped before the collective
// and own-contribution chunks travel as codec payloads, reconstructing to
// exactly the simulator's values under all five collectives (six workers put
// two machines under the hierarchical one, a pre-fold in the butterfly and a
// 2×3 grid under the torus).
func TestLiveQuantizedARSGDBitIdenticalToSim(t *testing.T) {
	for _, tc := range []struct {
		collective string
		workers    int
	}{{"ring", 4}, {"tree", 4}, {"hierarchical", 6}, {"butterfly", 6}, {"torus", 6}} {
		for _, f16 := range []bool{false, true} {
			cfg := liveConfig(core.ARSGD, tc.workers, 6, 42)
			cfg.Collective = tc.collective
			if f16 {
				cfg.QuantizeF16 = true
			} else {
				cfg.Quantize8 = true
			}
			sim := simParams(t, cfg)
			res, err := RunLoopback(cfg)
			if err != nil {
				t.Fatalf("%s f16=%v: %v", tc.collective, f16, err)
			}
			requireBitIdentical(t, sim, res.WorkerParams)
		}
	}
}

// TestLiveQuantizedAsyncComplete smokes the quantized PS path under real
// asynchrony: ASP gradients and SSP deltas travel as codec payloads, every
// worker finishes, and the run still learns.
func TestLiveQuantizedAsyncComplete(t *testing.T) {
	for _, algo := range []core.Algo{core.ASP, core.SSP} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			cfg := liveConfig(algo, 4, 8, 11)
			cfg.Quantize8 = true
			res, err := RunLoopback(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for w, n := range res.WorkerIters {
				if n != cfg.Iters {
					t.Fatalf("worker %d completed %d/%d iterations", w, n, cfg.Iters)
				}
			}
			if res.FinalTestAcc <= 1.0/3+0.05 {
				t.Fatalf("quantized %s live run did not learn: acc %.3f", algo, res.FinalTestAcc)
			}
		})
	}
}

// TestASPInt8PushPullAllocationBudget pins what one int8 push/pull may
// allocate, per worker-step and relative to the n-byte payload: the
// receiver's Data section of the gradient frame (ReadFrame still allocates
// it per frame) and small change. The worker's int8 codes and encoded
// payload live in buffers it keeps, the server's decoded codes view the
// frame's Data, and every float32 vector (the dequantized gradient, the
// parameters coming back) comes from xport's recycler. Before the codes and
// the payload had buffers to live in, a step allocated 4.0 n; it now reads
// 1.00 n. Measured as the difference between a long and a short run of one
// config, so set-up, rendezvous and the final evaluation cancel.
func TestASPInt8PushPullAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool sheds buffers at random under the race detector")
	}
	// One worker: its push and the pull that answers it alternate, so the
	// recycler's hit pattern — and with it the count — is the same every run.
	const (
		workers = 1
		short   = 4
		long    = 16
	)
	var n int
	allocated := func(iters int) uint64 {
		cfg := liveConfig(core.ASP, workers, iters, 7)
		cfg.Quantize8 = true
		cfg.Real.Factory = func(r *rng.RNG) *nn.Model { return nn.NewMLP(r, 2, 1024, 1024, 3) }
		cfg.Real.Batch = 4
		n = cfg.Real.Factory(rng.New(1)).NumParams()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := RunLoopback(cfg); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	// Steady state means the recycler keeps what it was given: hold the
	// collector off, as TestRingAllReduceAllocationBudget does.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocated(short) // warm the recycler's size classes
	perStep := float64(allocated(long)-allocated(short)) / float64(workers*(long-short))
	t.Logf("%.0f bytes allocated per worker-step, %.2f of the %d-byte int8 payload", perStep, perStep/float64(n), n)
	if budget := 1.25 * float64(n); perStep > budget {
		t.Fatalf("an int8 push/pull allocates %.0f bytes per worker-step, budget %.0f (1.25 payloads)", perStep, budget)
	}
}

// TestLiveARSGDBitIdenticalToSim: AR-SGD under each of the five collectives
// ends on the simulator's parameters bit for bit, over sockets and over
// channels. Ring and tree also run with worker 1 a 3× straggler, which in
// the simulator makes rank 2's tree message reach rank 0 before rank 1's
// (core.Validate admits the topology collectives only without a fault
// schedule); six and nine workers give those a partial and a single-member
// machine, butterfly pre-folds, and 2×3 and 3×3 grids. The conv-net row also
// holds the reported accuracy and loss to the simulator's.
func TestLiveARSGDBitIdenticalToSim(t *testing.T) {
	slow := &fault.Schedule{Events: []fault.Event{{Kind: fault.Slow, Worker: 1, Factor: 3}}}
	for _, tc := range []struct {
		name       string
		collective string
		workers    int
		faults     *fault.Schedule
		run        func(core.Config, ...Option) (*Result, error)
	}{
		{"loopback", "ring", 4, nil, RunLoopback},
		{"loopback", "tree", 4, nil, RunLoopback},
		{"chan slow worker 1", "ring", 4, slow, RunChan},
		{"chan slow worker 1", "tree", 4, slow, RunChan},
		{"loopback", "hierarchical", 6, nil, RunLoopback},
		{"loopback", "butterfly", 6, nil, RunLoopback},
		{"loopback", "torus", 6, nil, RunLoopback},
		{"chan", "hierarchical", 9, nil, RunChan},
		{"chan", "butterfly", 9, nil, RunChan},
		{"chan", "torus", 9, nil, RunChan},
	} {
		cfg := liveConfig(core.ARSGD, tc.workers, 6, 42)
		cfg.Collective = tc.collective
		cfg.Faults = tc.faults
		sim := simParams(t, cfg)
		res, err := tc.run(cfg)
		if err != nil {
			t.Fatalf("%s %s: %v", tc.name, tc.collective, err)
		}
		requireBitIdentical(t, sim, res.WorkerParams)
	}

	conv := liveConvConfig(core.ARSGD, 4, 6, 42)
	res, err := RunLoopback(conv)
	if err != nil {
		t.Fatal(err)
	}
	requireSameReport(t, simRun(t, conv), res)
}

// TestLiveBSPChanBitIdenticalToSim runs the same contract over the
// in-process channel transport.
func TestLiveBSPChanBitIdenticalToSim(t *testing.T) {
	cfg := liveConfig(core.BSP, 4, 6, 42)
	sim := simParams(t, cfg)
	res, err := RunChan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, sim, res.WorkerParams)
	if res.Transport != "chan" {
		t.Fatalf("transport %q", res.Transport)
	}
}

// TestLiveAsyncAlgosComplete runs the asynchronous algorithms over
// loopback TCP with real nondeterminism: each must complete every
// iteration and report a populated Summary.
func TestLiveAsyncAlgosComplete(t *testing.T) {
	for _, algo := range []core.Algo{core.ASP, core.SSP, core.EASGD, core.GoSGD, core.ADPSGD} {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			t.Parallel()
			cfg := liveConfig(algo, 4, 8, 11)
			res, err := RunLoopback(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for w, n := range res.WorkerIters {
				if n != cfg.Iters {
					t.Fatalf("worker %d completed %d/%d iterations", w, n, cfg.Iters)
				}
			}
			s := res.Summary()
			if s.VirtualSec <= 0 || s.Throughput <= 0 || s.TotalBytes == 0 {
				t.Fatalf("summary not populated: %+v", s)
			}
			if s.FinalTrainLoss == 0 {
				t.Fatalf("no training loss reported")
			}
			if s.FinalTestAcc <= 1.0/3+0.05 {
				t.Fatalf("%s live run did not learn: acc %.3f", algo, s.FinalTestAcc)
			}
		})
	}
}

// TestLiveBSPLocalAggBitIdenticalToSim: BSP with local aggregation — the
// machine leader folds its members' gradients in member order whatever order
// they arrive in, pushes one sum per machine and relays the parameters — ends
// on the simulator's parameters and report bit for bit. Eight workers fill two
// machines, six leave one half full, five leave a worker alone on its machine
// that pushes for itself; int8 quantizes the leader's sum, as the simulator's
// sendGrads does.
func TestLiveBSPLocalAggBitIdenticalToSim(t *testing.T) {
	for _, workers := range []int{8, 6, 5} {
		for _, int8 := range []bool{false, true} {
			cfg := liveConfig(core.BSP, workers, 6, 42)
			cfg.LocalAgg = true
			cfg.Quantize8 = int8
			sim := simRun(t, cfg)
			for _, run := range []func(core.Config, ...Option) (*Result, error){RunLoopback, RunChan} {
				res, err := run(cfg)
				if err != nil {
					t.Fatalf("%d workers int8=%v: %v", workers, int8, err)
				}
				requireSameReport(t, sim, res)
			}
		}
	}
}

// TestLiveGoSGDOverlay: GoSGD restricted to a 2-regular overlay — the graph
// the simulator draws from the same stream — completes every iteration on
// both transports, and because a worker's push decisions come from the shared
// loop and its own stream alone, the sockets carry exactly as many pushes as
// the simulated network does.
func TestLiveGoSGDOverlay(t *testing.T) {
	cfg := liveConfig(core.GoSGD, 6, 8, 42)
	cfg.Overlay, cfg.OverlayDegree = "kregular", 2
	sim := simRun(t, cfg)
	for name, run := range map[string]func(core.Config, ...Option) (*Result, error){"loopback": RunLoopback, "chan": RunChan} {
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for w, n := range res.WorkerIters {
			if n != cfg.Iters {
				t.Fatalf("%s: worker %d completed %d/%d iterations", name, w, n, cfg.Iters)
			}
		}
		if name == "loopback" && res.Net.FramesSent != sim.Net.TotalMsgs {
			t.Fatalf("live sent %d gossip pushes, the simulator %d", res.Net.FramesSent, sim.Net.TotalMsgs)
		}
	}
}

// TestLiveAsyncPSBitIdenticalToSimOneWorker is the sim↔live equality gate
// for the asynchronous PS algorithms. What the PS does with a message is
// the one ps.Shard in both runtimes, so the only thing a wall-clock run may
// change is the arrival order — and a single worker admits only one. ASP
// (with and without staleness damping), SSP, EASGD and AdaComm (whose period
// follows the worker's own loss), dense and with int8 gradient frames, over
// sockets and over channels, must therefore end on the simulator's parameters
// bit for bit.
func TestLiveAsyncPSBitIdenticalToSimOneWorker(t *testing.T) {
	for _, tc := range []struct {
		name string
		algo core.Algo
		mut  func(*core.Config)
	}{
		{"asp", core.ASP, nil},
		{"asp damping", core.ASP, func(c *core.Config) { c.StalenessDamping = true }},
		{"ssp", core.SSP, nil},
		{"easgd", core.EASGD, nil},
		{"adacomm", core.AdaComm, func(c *core.Config) { c.Tau = 4 }},
	} {
		for _, int8 := range []bool{false, true} {
			if int8 && !tc.algo.SendsGradients() {
				continue // ships parameters: core rejects a gradient codec
			}
			cfg := liveConfig(tc.algo, 1, 12, 42)
			cfg.Quantize8 = int8
			if tc.mut != nil {
				tc.mut(&cfg)
			}
			sim := simParams(t, cfg)
			for _, run := range []func(core.Config, ...Option) (*Result, error){RunLoopback, RunChan} {
				res, err := run(cfg)
				if err != nil {
					t.Fatalf("%s int8=%v: %v", tc.name, int8, err)
				}
				requireBitIdentical(t, sim, res.WorkerParams)
			}
		}
	}
}

// TestLiveASPStalenessDamping: damping rides along in the shared shard, so
// a four-worker live ASP run with real arrival-order nondeterminism accepts
// it, completes and learns.
func TestLiveASPStalenessDamping(t *testing.T) {
	cfg := liveConfig(core.ASP, 4, 8, 11)
	cfg.StalenessDamping = true
	res, err := RunLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for w, n := range res.WorkerIters {
		if n != cfg.Iters {
			t.Fatalf("worker %d completed %d/%d iterations", w, n, cfg.Iters)
		}
	}
	if res.FinalTestAcc <= 1.0/3+0.05 {
		t.Fatalf("damped ASP live run did not learn: acc %.3f", res.FinalTestAcc)
	}
}

// TestLiveBSPSurvivesKilledConnections exercises the fault satellite: a
// drop schedule becomes connection kills on the live transport, and
// because kills happen before the write and the frame is retried on a
// fresh connection, the run must still complete — and, since no frames are
// lost, stay bit-identical to the simulator without faults.
func TestLiveBSPSurvivesKilledConnections(t *testing.T) {
	clean := liveConfig(core.BSP, 4, 6, 42)
	sim := simParams(t, clean)

	cfg := liveConfig(core.BSP, 4, 6, 42)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Drop, At: 0, Duration: 0, Prob: 0.5, Machine: -1},
	}}
	res, err := RunLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each kill closes the peer connection before a write; the send then
	// lazily re-dials, so completion + kills recorded means the redial path
	// actually ran. (Stats.Redials counts write-failure retries, a
	// different path.)
	if res.Net.Kills == 0 {
		t.Fatalf("fault plan injected no connection kills: %+v", res.Net)
	}
	requireBitIdentical(t, sim, res.WorkerParams)
}

// TestTranslateFaults covers the schedule→plan projection directly.
func TestTranslateFaults(t *testing.T) {
	cl := cluster.Paper56G(8) // 2 machines × 4 workers
	s := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Drop, At: 1, Duration: 2, Prob: 0.3, Machine: -1},
		{Kind: fault.Slow, At: 0, Duration: 0, Factor: 3, Worker: 0},
		{Kind: fault.Partition, At: 0.5, Duration: 1, Machines: []int{1}},
	}}
	plan, err := TranslateFaults(s, 7, cl, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Kills) != 1 || len(plan.Delays) != 1 || len(plan.Partitions) != 1 {
		t.Fatalf("plan %+v", plan)
	}
	k := plan.Kills[0]
	if k.From != time.Second || k.To != 3*time.Second || k.Prob != 0.3 {
		t.Fatalf("kill window %+v", k)
	}
	d := plan.Delays[0]
	if d.Factor != 3 {
		t.Fatalf("delay factor %v, want 3", d.Factor)
	}
	if d.To <= d.From || d.To < time.Duration(1)<<61 {
		t.Fatalf("open-ended window not extended: %+v", d)
	}
	p := plan.Partitions[0]
	if p.From != 500*time.Millisecond || p.To != 1500*time.Millisecond {
		t.Fatalf("partition window %+v", p)
	}
	// Machine 1 hosts worker ranks 4..7; the PS rank (8) must stay out.
	want := []int{4, 5, 6, 7}
	if len(p.Side) != len(want) {
		t.Fatalf("partition side %v, want %v", p.Side, want)
	}
	for i, w := range want {
		if p.Side[i] != w {
			t.Fatalf("partition side %v, want %v", p.Side, want)
		}
	}

	// Crash events project onto the chaos membership layer, not the
	// transport: a crash-only schedule yields no transport plan at all.
	plan, err = TranslateFaults(&fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 1, Worker: 0},
	}}, 7, cl, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		t.Fatalf("crash-only schedule produced a transport plan: %+v", plan)
	}
}

// TestValidateRejectsUnsupported table-drives the live config gate: every
// rejection must be the one the row is about, named by a piece of its
// message.
func TestValidateRejectsUnsupported(t *testing.T) {
	crash := &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, AtIter: 1, Worker: 0}}}
	cases := []struct {
		name string
		algo core.Algo
		mut  func(*core.Config)
		want string
	}{
		{"cost-only", core.BSP, func(c *core.Config) { c.Real = nil }, "real-math mode required"},
		{"simulator-only algorithm", core.DPSGD, nil, "algorithm dpsgd is simulator-only"},
		{"sharded PS", core.BSP, func(c *core.Config) { c.Sharding = core.ShardBalanced; c.Shards = 2 },
			"PS sharding is not supported"},
		{"wait-free BP", core.BSP, func(c *core.Config) { c.WaitFreeBP = true }, "wait-free BP"},
		{"DGC", core.BSP, func(c *core.Config) { d := grad.DefaultDGC(0.9, 2); c.DGC = &d }, "DGC is not supported"},
		{"no-bipartite ablation", core.ADPSGD, func(c *core.Config) { c.ADPSGDNoBipartite = true },
			"no-bipartite ablation is simulator-only"},
		{"AD-PSGD overlay", core.ADPSGD, func(c *core.Config) { c.Overlay = "smallworld"; c.OverlayDegree = 2 },
			"AD-PSGD gossip overlays are simulator-only"},
		{"elastic async", core.ASP, func(c *core.Config) { c.Elastic = true }, "elastic membership supports BSP and AR-SGD only"},
		{"crash without elastic", core.BSP, func(c *core.Config) { c.Faults = crash }, "crash faults require Elastic"},
		// Still core.Validate's: a topology collective has a fixed membership.
		{"topology collective with elastic", core.ARSGD, func(c *core.Config) { c.Collective = "butterfly"; c.Elastic = true },
			"core: elastic membership is not supported with the butterfly collective"},
		{"topology collective with faults", core.ARSGD, func(c *core.Config) { c.Collective = "hierarchical"; c.Faults = crash },
			"core: fault injection is not supported with the hierarchical collective"},
	}
	for _, tc := range cases {
		cfg := liveConfig(tc.algo, 4, 4, 1)
		if tc.mut != nil {
			tc.mut(&cfg)
		}
		err := Validate(&cfg)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: rejected with %q, want the rejection containing %q", tc.name, err, tc.want)
		}
	}
	ok := liveConfig(core.BSP, 4, 4, 1)
	if err := Validate(&ok); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	// The fixed-cohort rejection is lifted: elastic BSP and AR-SGD validate,
	// with and without a crash schedule.
	for _, algo := range []core.Algo{core.BSP, core.ARSGD} {
		ecfg := liveConfig(algo, 4, 4, 1)
		ecfg.Elastic = true
		if err := Validate(&ecfg); err != nil {
			t.Fatalf("elastic %s rejected: %v", algo, err)
		}
		ecfg.Faults = &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Crash, AtIter: 2, Worker: 1, Restart: 0.1}}}
		if err := Validate(&ecfg); err != nil {
			t.Fatalf("elastic %s with crash schedule rejected: %v", algo, err)
		}
	}
	// What came with the shared worker loops: local aggregation, GoSGD's
	// overlays, AdaComm.
	for name, c := range map[string]core.Config{
		"local agg":     liveConfig(core.BSP, 4, 4, 1),
		"gosgd overlay": liveConfig(core.GoSGD, 4, 4, 1),
		"adacomm":       liveConfig(core.AdaComm, 4, 4, 1),
	} {
		c.LocalAgg = c.Algo == core.BSP
		c.Tau = 2
		if c.Algo == core.GoSGD {
			c.Overlay, c.OverlayDegree = "smallworld", 2
		}
		if err := Validate(&c); err != nil {
			t.Fatalf("%s rejected: %v", name, err)
		}
	}
	// All five collectives run live.
	for _, name := range []string{"ring", "tree", "hierarchical", "butterfly", "torus"} {
		ccfg := liveConfig(core.ARSGD, 4, 4, 1)
		ccfg.Collective = name
		if err := Validate(&ccfg); err != nil {
			t.Fatalf("%s collective rejected: %v", name, err)
		}
	}
}

// TestFingerprintCoversProtocolFields: flipping any field that changes which
// frames travel or how they fold must change the fingerprint, or a worker
// launched with the stale value is admitted and skews or wedges the run.
func TestFingerprintCoversProtocolFields(t *testing.T) {
	base := liveConfig(core.ARSGD, 4, 6, 42)
	want := fingerprint(&base)
	for name, mut := range map[string]func(*core.Config){
		"algo":         func(c *core.Config) { c.Algo = core.BSP },
		"workers":      func(c *core.Config) { c.Workers = 5 },
		"iters":        func(c *core.Config) { c.Iters = 7 },
		"seed":         func(c *core.Config) { c.Seed = 43 },
		"momentum":     func(c *core.Config) { c.Momentum = 0.8 },
		"weight decay": func(c *core.Config) { c.WeightDecay = 1e-4 },
		"lr base":      func(c *core.Config) { c.LR.Base = 0.1 },
		"lr warm-up":   func(c *core.Config) { c.LR.WarmupIters = 3 },
		"lr decay":     func(c *core.Config) { c.LR.DecayAt, c.LR.DecayFactor = []int{3}, 0.1 },
		"staleness":    func(c *core.Config) { c.Staleness = 2 },
		"tau":          func(c *core.Config) { c.Tau = 2 },
		"moving rate":  func(c *core.Config) { c.MovingRate = 0.5 },
		"gossip p":     func(c *core.Config) { c.GossipP = 0.25 },
		"collective":   func(c *core.Config) { c.Collective = "butterfly" },
		"int8":         func(c *core.Config) { c.Quantize8 = true },
		"f16":          func(c *core.Config) { c.QuantizeF16 = true },
		"elastic":      func(c *core.Config) { c.Elastic = true },
		"batch":        func(c *core.Config) { r := *c.Real; r.Batch = 8; c.Real = &r },
		"machines":     func(c *core.Config) { c.Cluster.Machines = 2 },
		"per machine":  func(c *core.Config) { c.Cluster.WorkersPerMachine = 2 },
		"faults": func(c *core.Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, AtIter: 3, Worker: 1, Restart: 0.5}}}
		},
		"iteration clock": func(c *core.Config) { c.Workload.Batch = 64 },
		"local agg":       func(c *core.Config) { c.LocalAgg = true },
		"overlay":         func(c *core.Config) { c.Overlay = "kregular" },
		"overlay degree":  func(c *core.Config) { c.OverlayDegree = 2 },
	} {
		cfg := base
		mut(&cfg)
		if fingerprint(&cfg) == want {
			t.Errorf("%s: fingerprint %q does not see the change", name, want)
		}
	}
}

// TestRendezvousRefusesMismatchedCollective sends the coordinator a HELLO
// from a worker configured with another collective: admitted, every rank
// would sit in a different message pattern until recvTimeout.
func TestRendezvousRefusesMismatchedCollective(t *testing.T) {
	cfg := liveConfig(core.ARSGD, 4, 4, 1)
	if err := Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	other := cfg
	other.Collective = "butterfly"
	workerErr := make(chan error, 1)
	go func() { workerErr <- RunWorker(other, ln.Addr().String(), "") }()
	_, err = coordinate(&cfg, ln, buildOptions(nil))
	if err == nil || !strings.Contains(err.Error(), "config fingerprint") ||
		!strings.Contains(err.Error(), "does not match") {
		t.Fatalf("coordinator: %v, want the config fingerprint mismatch", err)
	}
	if err := <-workerErr; err == nil {
		t.Fatal("the worker with another collective ran to completion")
	}
}

// chanGroup builds a W-rank channel mesh with one mailbox per rank for
// collective unit tests.
func chanGroup(w int) ([]*mailbox, []int) {
	cn := xport.NewChanNet(w)
	mbs := make([]*mailbox, w)
	nodes := make([]int, w)
	for i := 0; i < w; i++ {
		mbs[i] = newMailbox(cn.Endpoint(i))
		nodes[i] = i
	}
	return mbs, nodes
}
