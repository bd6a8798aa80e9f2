package live

import (
	"context"
	"fmt"
	"math"
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

// simParams runs the simulator with parameter capture and returns its
// per-worker final parameters.
func simParams(t *testing.T, cfg core.Config) [][]float32 {
	t.Helper()
	cfg.CaptureParams = true
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	if len(res.WorkerParams) != cfg.Workers {
		t.Fatalf("sim captured %d param vectors, want %d", len(res.WorkerParams), cfg.Workers)
	}
	return res.WorkerParams
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
// and leaf chunks travel as codec payloads, reconstructing to exactly the
// simulator's values on ring and tree alike.
func TestLiveQuantizedARSGDBitIdenticalToSim(t *testing.T) {
	for _, tree := range []bool{false, true} {
		for _, f16 := range []bool{false, true} {
			cfg := liveConfig(core.ARSGD, 4, 6, 42)
			cfg.TreeAllReduce = tree
			if f16 {
				cfg.QuantizeF16 = true
			} else {
				cfg.Quantize8 = true
			}
			sim := simParams(t, cfg)
			res, err := RunLoopback(cfg)
			if err != nil {
				t.Fatalf("tree=%v f16=%v: %v", tree, f16, err)
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

// TestLiveARSGDBitIdenticalToSim: the ring AllReduce path, and with
// TreeAllReduce the binomial-tree path, both bit-identical — also over the
// channel transport with worker 1 a 3× straggler, which in the simulator
// makes rank 2's tree message reach rank 0 before rank 1's.
func TestLiveARSGDBitIdenticalToSim(t *testing.T) {
	slow := &fault.Schedule{Events: []fault.Event{{Kind: fault.Slow, Worker: 1, Factor: 3}}}
	for _, tc := range []struct {
		name   string
		faults *fault.Schedule
		run    func(core.Config, ...Option) (*Result, error)
	}{
		{"loopback", nil, RunLoopback},
		{"chan slow worker 1", slow, RunChan},
	} {
		for _, tree := range []bool{false, true} {
			cfg := liveConfig(core.ARSGD, 4, 6, 42)
			cfg.TreeAllReduce = tree
			cfg.Faults = tc.faults
			sim := simParams(t, cfg)
			res, err := tc.run(cfg)
			if err != nil {
				t.Fatalf("%s tree=%v: %v", tc.name, tree, err)
			}
			requireBitIdentical(t, sim, res.WorkerParams)
		}
	}
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

// TestLiveAsyncPSBitIdenticalToSimOneWorker is the sim↔live equality gate
// for the asynchronous PS algorithms. What the PS does with a message is
// the one ps.Shard in both runtimes, so the only thing a wall-clock run may
// change is the arrival order — and a single worker admits only one. ASP
// (with and without staleness damping), SSP and EASGD, dense and with int8
// gradient frames, over sockets and over channels, must therefore end on
// the simulator's parameters bit for bit.
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
	} {
		for _, int8 := range []bool{false, true} {
			if int8 && tc.algo == core.EASGD {
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

// TestValidateRejectsUnsupported table-drives the live config gate.
func TestValidateRejectsUnsupported(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*core.Config)
	}{
		{"cost-only", func(c *core.Config) { c.Real = nil }},
		{"sharded PS", func(c *core.Config) { c.Sharding = core.ShardBalanced; c.Shards = 2 }},
		{"wait-free BP", func(c *core.Config) { c.WaitFreeBP = true }},
		{"local agg", func(c *core.Config) { c.LocalAgg = true }},
		{"elastic async", func(c *core.Config) { c.Algo = core.ASP; c.Elastic = true }},
		{"crash without elastic", func(c *core.Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, AtIter: 1, Worker: 0}}}
		}},
	}
	for _, tc := range cases {
		cfg := liveConfig(core.BSP, 4, 4, 1)
		tc.mut(&cfg)
		if err := Validate(&cfg); err == nil {
			t.Fatalf("%s: accepted", tc.name)
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
