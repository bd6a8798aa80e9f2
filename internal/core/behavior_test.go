package core

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/grad"
	"disttrain/internal/metrics"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
)

// TestSyncAlgorithmsBoundSpread verifies that BSP and AR-SGD never let any
// worker run more than one iteration ahead, even with heavy stragglers.
func TestSyncAlgorithmsBoundSpread(t *testing.T) {
	for _, algo := range []Algo{BSP, ARSGD} {
		cfg := costConfig(algo, 8, 20)
		cfg.Workload.GPU.StragglerProb = 0.2
		cfg.Workload.GPU.StragglerMult = 5
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.MaxSpread > 1 {
			t.Fatalf("%s: spread %d > 1 despite synchronization", algo, res.Metrics.MaxSpread)
		}
	}
}

// TestSSPBoundsSpreadASPDoesNot: with stragglers, SSP's realized staleness
// must respect its threshold while ASP's floats above it.
func TestSSPBoundsSpreadASPDoesNot(t *testing.T) {
	mk := func(algo Algo, s int) Config {
		cfg := costConfig(algo, 8, 40)
		cfg.Staleness = s
		cfg.Workload.GPU.StragglerProb = 0.25
		cfg.Workload.GPU.StragglerMult = 8
		return cfg
	}
	ssp, err := Run(context.Background(), mk(SSP, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Realized spread can exceed s by a small in-flight margin (a worker
	// may have started its next iteration while the clock ack is on the
	// wire), but it must stay close to the bound.
	if ssp.Metrics.MaxSpread > 2+2 {
		t.Fatalf("SSP(s=2) spread = %d", ssp.Metrics.MaxSpread)
	}
	asp, err := Run(context.Background(), mk(ASP, 0))
	if err != nil {
		t.Fatal(err)
	}
	if asp.Metrics.MaxSpread <= ssp.Metrics.MaxSpread {
		t.Fatalf("ASP spread %d not above SSP's %d under stragglers",
			asp.Metrics.MaxSpread, ssp.Metrics.MaxSpread)
	}
}

// TestStragglersHurtSyncMoreThanAsync reproduces the paper's straggler
// analysis: a slow worker stalls the whole BSP round but barely affects
// AD-PSGD, whose exchanges don't wait for stragglers.
func TestStragglersHurtSyncMoreThanAsync(t *testing.T) {
	run := func(algo Algo, straggle bool) float64 {
		cfg := costConfig(algo, 8, 25)
		if straggle {
			cfg.Workload.GPU.StragglerProb = 0.1
			cfg.Workload.GPU.StragglerMult = 6
		}
		res, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Throughput
	}
	bspLoss := 1 - run(BSP, true)/run(BSP, false)
	adLoss := 1 - run(ADPSGD, true)/run(ADPSGD, false)
	if bspLoss <= adLoss {
		t.Fatalf("straggler throughput loss: BSP %.2f vs AD-PSGD %.2f — sync should hurt more", bspLoss, adLoss)
	}
}

// TestADPSGDUnconstrainedDeadlocks demonstrates the deadlock the bipartite
// graph exists to prevent: with naive symmetric exchanges, communication
// processes end up in a wait-for cycle and never finish, while the
// bipartite variant drains cleanly.
func TestADPSGDUnconstrainedDeadlocks(t *testing.T) {
	naive := costConfig(ADPSGD, 6, 30)
	naive.ADPSGDNoBipartite = true
	res, err := Run(context.Background(), naive)
	if err != nil {
		t.Fatal(err)
	}
	stuckComm := 0
	for _, name := range res.StuckProcs {
		if strings.HasPrefix(name, "adpsgd-comm") {
			stuckComm++
		}
	}
	if stuckComm == 0 {
		t.Fatalf("expected deadlocked comm processes, stuck = %v", res.StuckProcs)
	}

	bipartite, err := Run(context.Background(), costConfig(ADPSGD, 6, 30))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range bipartite.StuckProcs {
		if strings.HasPrefix(name, "adpsgd-comm") {
			t.Fatalf("bipartite AD-PSGD comm proc stuck: %v", bipartite.StuckProcs)
		}
	}
}

// TestQuantize8ReducesTrafficKeepsAccuracy checks the 8-bit extension:
// gradient bytes drop ~4x and the model still trains.
func TestQuantize8ReducesTrafficKeepsAccuracy(t *testing.T) {
	base := realConfig(BSP, 4, 150, 31)
	r1, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	q := realConfig(BSP, 4, 150, 31)
	q.Quantize8 = true
	r2, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r2.GradientBytes()) / float64(r1.GradientBytes())
	if ratio > 0.27 || ratio < 0.23 {
		t.Fatalf("quantized gradient bytes ratio %.3f, want ~0.25", ratio)
	}
	if r2.FinalTestAcc < r1.FinalTestAcc-0.05 {
		t.Fatalf("quantization hurt accuracy: %.3f vs %.3f", r2.FinalTestAcc, r1.FinalTestAcc)
	}
}

func TestQuantize8Validation(t *testing.T) {
	cfg := costConfig(EASGD, 4, 5)
	cfg.Quantize8 = true
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("quantization on parameter-sending algorithm accepted")
	}
	cfgF := costConfig(EASGD, 4, 5)
	cfgF.QuantizeF16 = true
	if _, err := Run(context.Background(), cfgF); err == nil {
		t.Fatal("f16 quantization on parameter-sending algorithm accepted")
	}
	both := costConfig(ASP, 4, 5)
	both.Quantize8 = true
	both.QuantizeF16 = true
	if _, err := Run(context.Background(), both); err == nil {
		t.Fatal("two quantization codecs at once accepted")
	}
	// Quantization layers on DGC: the sparse values are quantized after
	// compression, so the combination is valid and must run.
	cfg2 := costConfig(ASP, 4, 5)
	cfg2.Quantize8 = true
	d := grad.DefaultDGC(0.9, 0)
	cfg2.DGC = &d
	if _, err := Run(context.Background(), cfg2); err != nil {
		t.Fatalf("DGC + quantization rejected: %v", err)
	}
	cfg3 := costConfig(ASP, 4, 5)
	cfg3.ADPSGDNoBipartite = true
	if _, err := Run(context.Background(), cfg3); err == nil {
		t.Fatal("NoBipartite on ASP accepted")
	}
}

// TestQuantizeF16ReducesTraffic mirrors the int8 test for the fp16 codec:
// dense gradient bytes halve and accuracy holds.
func TestQuantizeF16ReducesTraffic(t *testing.T) {
	base := realConfig(BSP, 4, 150, 31)
	r1, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	q := realConfig(BSP, 4, 150, 31)
	q.QuantizeF16 = true
	r2, err := Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(r2.GradientBytes()) / float64(r1.GradientBytes())
	if ratio > 0.52 || ratio < 0.48 {
		t.Fatalf("f16 gradient bytes ratio %.3f, want ~0.5", ratio)
	}
	if r2.FinalTestAcc < r1.FinalTestAcc-0.05 {
		t.Fatalf("f16 quantization hurt accuracy: %.3f vs %.3f", r2.FinalTestAcc, r1.FinalTestAcc)
	}
}

// TestStragglerSampling sanity-checks the injected distribution.
func TestStragglerSampling(t *testing.T) {
	wl := costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128)
	wl.GPU.StragglerProb = 0.5
	wl.GPU.StragglerMult = 10
	cfg := costConfig(BSP, 4, 30)
	cfg.Workload = wl
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// With half the iterations 10x slower, the run must take far longer
	// than the straggler-free baseline.
	clean, err := Run(context.Background(), costConfig(BSP, 4, 30))
	if err != nil {
		t.Fatal(err)
	}
	if res.VirtualSec < 2*clean.VirtualSec {
		t.Fatalf("stragglers barely slowed BSP: %.1f vs %.1f", res.VirtualSec, clean.VirtualSec)
	}
}

// TestDecentralizedTrafficIsLessBursty quantifies the paper's observation
// that AD-PSGD's communication "is distributed into multiple workers, not a
// specific worker (e.g. PS), which helps utilize the network bandwidth
// better": the per-machine NIC load spread of AD-PSGD must be far more even
// than unsharded ASP's PS hot spot.
func TestDecentralizedTrafficIsLessBursty(t *testing.T) {
	asp, err := Run(context.Background(), costConfig(ASP, 16, 15))
	if err != nil {
		t.Fatal(err)
	}
	ad, err := Run(context.Background(), costConfig(ADPSGD, 16, 15))
	if err != nil {
		t.Fatal(err)
	}
	aspSpread := asp.Net.UtilizationSpread()
	adSpread := ad.Net.UtilizationSpread()
	if adSpread >= aspSpread {
		t.Fatalf("utilization spread: AD-PSGD %.3f not below ASP %.3f", adSpread, aspSpread)
	}
	if aspSpread < 0.3 {
		t.Fatalf("ASP hot spot too mild (%.3f) — PS machine should dominate", aspSpread)
	}
}

// TestTreeAllReduceOption checks the AR-SGD tree variant: identical math
// (same final accuracy as the ring, which computes the same sum) but
// different traffic (tree moves O(M log N) per round vs the ring's 2M(N-1)
// total).
func TestTreeAllReduceOption(t *testing.T) {
	ring, err := Run(context.Background(), realConfig(ARSGD, 4, 60, 81))
	if err != nil {
		t.Fatal(err)
	}
	treeCfg := realConfig(ARSGD, 4, 60, 81)
	treeCfg.Collective = "tree"
	tree, err := Run(context.Background(), treeCfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ring.FinalTestAcc-tree.FinalTestAcc) > 0.02 {
		t.Fatalf("tree changed the math: %.4f vs %.4f", tree.FinalTestAcc, ring.FinalTestAcc)
	}
	if tree.Net.TotalBytes == ring.Net.TotalBytes {
		t.Fatal("tree and ring moved identical bytes — dispatch not wired")
	}
}

func TestTreeAllReduceValidation(t *testing.T) {
	cfg := costConfig(BSP, 4, 5)
	cfg.Collective = "tree"
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("tree allreduce accepted on BSP")
	}
}

// TestStalenessDampingImprovesASP: at a scale where raw ASP's momentum herd
// degrades accuracy, damping each gradient by its staleness must recover
// some of it (and must never make things worse).
func TestStalenessDampingImprovesASP(t *testing.T) {
	base := realConfig(ASP, 8, 80, 82)
	base.LR = baseLRSchedule(0.4) // deliberately hot to expose staleness
	r1, err := Run(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	damped := realConfig(ASP, 8, 80, 82)
	damped.LR = baseLRSchedule(0.4)
	damped.StalenessDamping = true
	r2, err := Run(context.Background(), damped)
	if err != nil {
		t.Fatal(err)
	}
	if r2.FinalTestAcc < r1.FinalTestAcc-0.02 {
		t.Fatalf("damping hurt: %.4f vs %.4f", r2.FinalTestAcc, r1.FinalTestAcc)
	}
}

func TestStalenessDampingValidation(t *testing.T) {
	cfg := costConfig(BSP, 4, 5)
	cfg.StalenessDamping = true
	if _, err := Run(context.Background(), cfg); err == nil {
		t.Fatal("staleness damping accepted on BSP")
	}
}

// TestAugmentationWiredThrough: augmented training must change the
// trajectory (different batches) while still learning the task.
func TestAugmentationWiredThrough(t *testing.T) {
	shapes := func(aug bool) Config {
		r := rng.New(2100)
		ds := data.GenShapes16(r, 800)
		tr, te := ds.Split(r.Split(1), 160)
		cfg := costConfig(BSP, 4, 120)
		cfg.Seed = 91
		cfg.LR = opt.NewPaperSchedule(0.005, 4, 6, []int{60, 100})
		cfg.WeightDecay = 1e-4
		cfg.Real = &RealConfig{
			Factory: func(rr *rng.RNG) *nn.Model { return nn.NewMiniCNN(rr, data.ShapeClasses) },
			Train:   tr,
			Test:    te,
			Batch:   8,
		}
		if aug {
			cfg.Real.Augment = &data.Augment{MaxShift: 2, FlipProb: 0.5}
		}
		return cfg
	}
	plain, err := Run(context.Background(), shapes(false))
	if err != nil {
		t.Fatal(err)
	}
	aug, err := Run(context.Background(), shapes(true))
	if err != nil {
		t.Fatal(err)
	}
	if plain.FinalTrainLoss == aug.FinalTrainLoss {
		t.Fatal("augmentation had no effect on training")
	}
	if aug.FinalTestAcc < 0.6 {
		t.Fatalf("augmented run failed to learn: %.3f", aug.FinalTestAcc)
	}
}

// TestGoSGDSenderNeverBlocks pins the "asymmetric" property of GoSGD: a
// sender proceeds immediately, so the run's makespan is governed purely by
// compute time, independent of gossip frequency.
func TestGoSGDSenderNeverBlocks(t *testing.T) {
	quiet := costConfig(GoSGD, 8, 25)
	quiet.GossipP = 0.01
	r1, err := Run(context.Background(), quiet)
	if err != nil {
		t.Fatal(err)
	}
	chatty := costConfig(GoSGD, 8, 25)
	chatty.GossipP = 1
	r2, err := Run(context.Background(), chatty)
	if err != nil {
		t.Fatal(err)
	}
	// 100x the gossip volume must not meaningfully change the makespan.
	if r2.VirtualSec > r1.VirtualSec*1.05 {
		t.Fatalf("gossip frequency changed makespan: %.3f vs %.3f — sender blocked somewhere",
			r2.VirtualSec, r1.VirtualSec)
	}
}

// TestEASGDDefaultMovingRate verifies the 0.9/N default from the EASGD
// paper's β = N·α = 0.9 rule.
func TestEASGDDefaultMovingRate(t *testing.T) {
	cfg := costConfig(EASGD, 8, 5)
	cfg.MovingRate = 0
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.9 / 8
	if math.Abs(res.Config.MovingRate-want) > 1e-12 {
		t.Fatalf("default alpha = %v, want %v", res.Config.MovingRate, want)
	}
}

// TestASPNoBarrier: an ASP worker's progress must not depend on a straggling
// peer — unlike BSP, where one slow worker stalls the world every round.
func TestASPNoBarrier(t *testing.T) {
	mk := func(algo Algo) Config {
		cfg := costConfig(algo, 8, 20)
		// Worker 0's jitter stream will occasionally straggle hard.
		cfg.Workload.GPU.StragglerProb = 0.3
		cfg.Workload.GPU.StragglerMult = 10
		return cfg
	}
	asp, err := Run(context.Background(), mk(ASP))
	if err != nil {
		t.Fatal(err)
	}
	bsp, err := Run(context.Background(), mk(BSP))
	if err != nil {
		t.Fatal(err)
	}
	minA, maxA := asp.Metrics.IterSpread()
	minB, maxB := bsp.Metrics.IterSpread()
	_ = minA
	_ = minB
	if maxA != 20 || maxB != 20 {
		t.Fatalf("runs incomplete: asp %d bsp %d", maxA, maxB)
	}
	if asp.VirtualSec >= bsp.VirtualSec {
		t.Fatalf("ASP (%.2f) should outrun BSP (%.2f) under stragglers", asp.VirtualSec, bsp.VirtualSec)
	}
}

// TestProcessPanicFailsTheRunOnly: a panic inside a simulated process — here
// from the caller's own Progress callback, three evaluations into a real-math
// run on the compute pool — comes back as Run's error with the process's
// stack, and the run leaves no goroutine behind (the other workers and the PS
// shard are parked mid-protocol, the pool is up). One bad job must not take
// down a service that runs many.
func TestProcessPanicFailsTheRunOnly(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, algo := range []Algo{BSP, ADPSGD} {
		cfg := realConfig(algo, 4, 10, 3)
		cfg.PoolSize = 2
		cfg.Real.EvalEvery = 1
		calls := 0
		cfg.Progress = func(metrics.TracePoint) {
			if calls++; calls == 3 {
				panic("progress sink broke")
			}
		}
		res, err := Run(context.Background(), cfg)
		if err == nil || res != nil {
			t.Fatalf("%s: Run returned %v, %v; want the panic as an error", algo, res, err)
		}
		for _, want := range []string{"core: simulated process panicked: progress sink broke", `(in process "`, "core.(*exp).evalGlobal"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: error lacks %q:\n%v", algo, want, err)
			}
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed runs, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
