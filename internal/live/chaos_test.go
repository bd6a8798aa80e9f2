package live

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/fault"
)

// chaosSchedule kills two of four workers mid-run, each with a restart
// delay that revives it one iteration later (restart 0.1s < one nominal
// iteration of the test workload).
func chaosSchedule() *fault.Schedule {
	return &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 4, Worker: 1, Restart: 0.1},
		{Kind: fault.Crash, AtIter: 6, Worker: 2, Restart: 0.1},
	}}
}

// TestLiveBSPChaosConvergence is the chaos acceptance test: loopback BSP
// with four workers survives two scheduled kills with restart — the killed
// workers restore from checkpoint, rejoin through the coordinator, and the
// run converges to within tolerance of the fault-free run.
func TestLiveBSPChaosConvergence(t *testing.T) {
	clean := liveConfig(core.BSP, 4, 12, 42)
	cleanRes, err := RunLoopback(clean)
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}

	cfg := liveConfig(core.BSP, 4, 12, 42)
	cfg.Elastic = true
	cfg.Faults = chaosSchedule()
	dir := t.TempDir()
	res, err := RunLoopback(cfg, WithCheckpoints(dir, 1))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}

	if res.Deaths < 2 {
		t.Fatalf("observed %d deaths, want >= 2", res.Deaths)
	}
	if res.Rejoins < 2 {
		t.Fatalf("observed %d rejoins, want >= 2", res.Rejoins)
	}
	if res.Restores < 2 {
		t.Fatalf("observed %d checkpoint restores, want >= 2", res.Restores)
	}
	for w, n := range res.WorkerIters {
		if n != cfg.Iters {
			t.Fatalf("worker %d completed %d/%d iterations after restart", w, n, cfg.Iters)
		}
	}
	if res.FinalTestAcc <= 1.0/3+0.05 {
		t.Fatalf("chaos run did not learn: acc %.3f", res.FinalTestAcc)
	}
	if diff := math.Abs(res.FinalTestAcc - cleanRes.FinalTestAcc); diff > 0.15 {
		t.Fatalf("chaos accuracy %.3f vs fault-free %.3f (diff %.3f > 0.15)",
			res.FinalTestAcc, cleanRes.FinalTestAcc, diff)
	}

	// The Summary projection carries the chaos counters.
	s := res.Summary()
	if !s.Elastic {
		t.Fatalf("summary does not mark the run elastic")
	}
	if s.Faults.Crashes < 2 || s.Faults.Restarts < 2 {
		t.Fatalf("summary fault stats not populated: %+v", s.Faults)
	}

	// Periodic checkpoints landed on disk for every worker and the PS.
	for r := 0; r < cfg.Workers; r++ {
		p := filepath.Join(dir, "worker-"+string(rune('0'+r))+".ckpt")
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("worker %d checkpoint missing: %v", r, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "ps.ckpt")); err != nil {
		t.Fatalf("PS checkpoint missing: %v", err)
	}
}

// TestLiveBSPChaosBitIdenticalToSim extends the determinism contract to
// elastic churn: with checkpoints every iteration, a restored worker
// resumes with exactly the parameters, momentum, loss EWMA, and sampler
// position the simulator's restarted replica has — so the whole chaotic
// run stays bit-identical to the simulator's Elastic mode. In the long
// restart the worker comes back several rounds ahead of where it died, and
// its gradient waits at the PS for its own round on both runtimes.
func TestLiveBSPChaosBitIdenticalToSim(t *testing.T) {
	for _, tc := range []struct {
		name   string
		iters  int
		faults *fault.Schedule
	}{
		{"two-restarts", 10, chaosSchedule()},
		{"long-restart", 12, &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Crash, AtIter: 4, Worker: 1, Restart: 1.2},
		}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(core.BSP, 4, tc.iters, 42)
			cfg.Elastic = true
			cfg.Faults = tc.faults
			sim := simParams(t, cfg)

			res, err := RunLoopback(cfg, WithCheckpoints(t.TempDir(), 1))
			if err != nil {
				t.Fatal(err)
			}
			requireBitIdentical(t, sim, res.WorkerParams)
		})
	}
}

// TestLiveARSGDElasticBitIdenticalToSim: the decentralized side of the
// elastic contract. The AR-SGD ring is rebuilt from the alive membership
// every round — survivors reduce over the shrunken ring exactly like the
// simulator — and a restored worker rejoins the ring bit-identically
// (momentum restored from the checkpoint).
func TestLiveARSGDElasticBitIdenticalToSim(t *testing.T) {
	cfg := liveConfig(core.ARSGD, 4, 8, 42)
	cfg.Elastic = true
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 4, Worker: 1, Restart: 0.1},
	}}
	sim := simParams(t, cfg)

	res, err := RunLoopback(cfg, WithCheckpoints(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, sim, res.WorkerParams)
	if res.Deaths < 1 || res.Rejoins < 1 || res.Restores < 1 {
		t.Fatalf("chaos counters: deaths=%d rejoins=%d restores=%d",
			res.Deaths, res.Rejoins, res.Restores)
	}
}

// TestLivePartitionStallsAndRecovers projects a partition window onto the
// live transport: sends crossing the machine cut stall until the window
// closes, so the run slows but loses nothing — final parameters stay
// bit-identical to a clean simulator run.
func TestLivePartitionStallsAndRecovers(t *testing.T) {
	clean := liveConfig(core.ARSGD, 8, 4, 42)
	sim := simParams(t, clean)

	cfg := liveConfig(core.ARSGD, 8, 4, 42)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Partition, At: 0, Duration: 0.15, Machines: []int{1}},
	}}
	res, err := RunLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Net.Partitioned == 0 {
		t.Fatalf("partition window stalled no sends: %+v", res.Net)
	}
	requireBitIdentical(t, sim, res.WorkerParams)
}

// TestLiveElasticWithoutCrashMatchesFixedCohort: Elastic with no crash
// schedule is the full fixed cohort — still bit-identical to the
// simulator.
func TestLiveElasticWithoutCrashMatchesFixedCohort(t *testing.T) {
	cfg := liveConfig(core.BSP, 4, 6, 42)
	cfg.Elastic = true
	sim := simParams(t, cfg)
	res, err := RunLoopback(cfg)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, sim, res.WorkerParams)
}

// TestRunChanRejectsCrash: the channel transport has no process boundary
// to kill and no sockets to redial, so crash schedules are TCP-only.
func TestRunChanRejectsCrash(t *testing.T) {
	cfg := liveConfig(core.BSP, 4, 4, 1)
	cfg.Elastic = true
	cfg.Faults = chaosSchedule()
	if _, err := RunChan(cfg); err == nil {
		t.Fatal("RunChan accepted a crash schedule")
	}
}
