package core

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"disttrain/internal/fault"
)

// faultConfig is costConfig plus a schedule: worker 1 crashes at iteration
// 5 and returns two nominal iterations later, and worker 2 computes 3x
// slower for a while.
func faultConfig(algo Algo, workers, iters int, elastic bool) Config {
	cfg := costConfig(algo, workers, iters)
	mean := cfg.Workload.MeanIterSec()
	cfg.Elastic = elastic
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 5, Worker: 1, Restart: 2 * mean},
		{Kind: fault.Slow, At: mean, Worker: 2, Factor: 3, Duration: 4 * mean},
	}}
	return cfg
}

// TestFaultReproducibility checks the engine's core guarantee: the same
// (config, schedule, seed) triple yields byte-identical exported results.
func TestFaultReproducibility(t *testing.T) {
	for _, algo := range Algos() {
		algo := algo
		t.Run(string(algo), func(t *testing.T) {
			var out [2]bytes.Buffer
			for i := range out {
				res, err := Run(context.Background(), faultConfig(algo, 8, 20, true))
				if err != nil {
					t.Fatalf("run %d: %v", i, err)
				}
				if err := res.WriteJSON(&out[i]); err != nil {
					t.Fatal(err)
				}
				if res.Metrics.Faults.Crashes == 0 {
					t.Fatalf("run %d: crash schedule did not fire", i)
				}
			}
			if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
				t.Fatalf("same seed+schedule produced different results:\n%s\n---\n%s",
					out[0].String(), out[1].String())
			}
		})
	}
}

// TestDropReproducibility exercises the probabilistic-drop RNG stream: the
// Bernoulli draws consume randomness, but in deterministic engine order, so
// two runs still agree bit-for-bit.
func TestDropReproducibility(t *testing.T) {
	mk := func() Config {
		cfg := costConfig(ASP, 8, 20)
		cfg.Faults = &fault.Schedule{Events: []fault.Event{
			{Kind: fault.Drop, At: 0, Machine: -1, Prob: 0.2},
		}}
		return cfg
	}
	var out [2]bytes.Buffer
	for i := range out {
		res, err := Run(context.Background(), mk())
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if res.Net.DroppedMsgs == 0 {
			t.Fatalf("run %d: no messages dropped at p=0.2", i)
		}
		if err := res.WriteJSON(&out[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(out[0].Bytes(), out[1].Bytes()) {
		t.Fatal("same seed+drop schedule produced different results")
	}
}

// TestBSPCollapseADPSGDSurvives is the paper-consistent fault story: a
// permanent mid-run crash freezes faithful BSP at the barrier (sustained
// throughput zero), while AD-PSGD — whose gossip partners simply re-draw
// away from the dead peer — finishes within 10% of its fault-free time.
func TestBSPCollapseADPSGDSurvives(t *testing.T) {
	crash := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 10, Worker: 3},
	}}

	bsp := costConfig(BSP, 8, 30)
	bsp.Faults = crash
	rb, err := Run(context.Background(), bsp)
	if err != nil {
		t.Fatalf("faithful BSP under crash: %v", err)
	}
	if rb.StalledWorkers == 0 {
		t.Fatal("faithful BSP: expected stranded workers after a permanent crash")
	}
	if rb.Throughput != 0 {
		t.Fatalf("faithful BSP: hung run reported throughput %v, want 0", rb.Throughput)
	}

	// Elastic BSP excludes the dead rank and keeps going.
	ebsp := costConfig(BSP, 8, 30)
	ebsp.Faults = crash
	ebsp.Elastic = true
	re, err := Run(context.Background(), ebsp)
	if err != nil {
		t.Fatalf("elastic BSP under crash: %v", err)
	}
	if re.StalledWorkers != 0 || re.Throughput == 0 {
		t.Fatalf("elastic BSP: stalled=%d throughput=%v, want a completed run",
			re.StalledWorkers, re.Throughput)
	}

	clean, err := Run(context.Background(), costConfig(ADPSGD, 8, 30))
	if err != nil {
		t.Fatal(err)
	}
	ad := costConfig(ADPSGD, 8, 30)
	ad.Faults = crash
	rf, err := Run(context.Background(), ad)
	if err != nil {
		t.Fatalf("AD-PSGD under crash: %v", err)
	}
	if rf.StalledWorkers != 0 {
		t.Fatalf("AD-PSGD: %d stalled workers, want 0", rf.StalledWorkers)
	}
	if rf.VirtualSec > clean.VirtualSec*1.10 {
		t.Fatalf("AD-PSGD under crash took %.3fs vs %.3fs fault-free (> +10%%)",
			rf.VirtualSec, clean.VirtualSec)
	}
}

// TestCrashRestartAccounting verifies the fault counters of a crash-with-
// restart run: one crash, one restart, the dead window's iterations lost
// and the post-restart iterations counted as recovered.
func TestCrashRestartAccounting(t *testing.T) {
	res, err := Run(context.Background(), faultConfig(ARSGD, 4, 20, true))
	if err != nil {
		t.Fatal(err)
	}
	f := res.Metrics.Faults
	if f.Crashes != 1 || f.Restarts != 1 {
		t.Fatalf("crashes=%d restarts=%d, want 1/1", f.Crashes, f.Restarts)
	}
	if f.LostIters <= 0 || f.RecoveredIters <= 0 {
		t.Fatalf("lost=%d recovered=%d, want both > 0", f.LostIters, f.RecoveredIters)
	}
	// Faithful mode stalls instead of losing iterations: the restarted
	// worker reruns the round the whole system waited on.
	rf, err := Run(context.Background(), faultConfig(ARSGD, 4, 20, false))
	if err != nil {
		t.Fatal(err)
	}
	if rf.Metrics.Faults.LostIters != 0 {
		t.Fatalf("faithful restart lost %d iters, want 0", rf.Metrics.Faults.LostIters)
	}
	if got := rf.Metrics.TotalIters(); got != 80 {
		t.Fatalf("faithful restart: total iters %d, want 80", got)
	}
	if rf.VirtualSec <= res.VirtualSec {
		t.Fatalf("faithful stall (%.3fs) should cost more time than elastic skip (%.3fs)",
			rf.VirtualSec, res.VirtualSec)
	}
}

// TestValidateRejectsMalformedFaults feeds every malformed-schedule class
// through the CLI-reachable Validate path and requires an error, not a
// panic.
func TestValidateRejectsMalformedFaults(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"worker out of range", func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, Worker: 99}}}
		}},
		{"negative start", func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Drop, At: -1, Machine: -1, Prob: 0.1}}}
		}},
		{"drop prob too high", func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Drop, Machine: -1, Prob: 1.5}}}
		}},
		{"slow factor zero", func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Slow, Worker: 0, Factor: 0}}}
		}},
		{"partition not a proper subset", func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Partition, Machines: []int{0, 1}}}}
		}},
		{"unknown kind", func(c *Config) {
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: "meltdown"}}}
		}},
		{"negative barrier timeout", func(c *Config) {
			c.BarrierTimeoutSec = -1
		}},
		{"unsupported algorithm", func(c *Config) {
			c.Algo = Hogwild
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, Worker: 0}}}
		}},
		{"local agg with crash", func(c *Config) {
			c.LocalAgg = true
			c.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, Worker: 0}}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := costConfig(BSP, 8, 5)
			// Paper56G(8) has 2 machines (4 workers each), so the 2-machine
			// partition above covers every machine — a rejected cut.
			tc.mut(&cfg)
			if _, err := Run(context.Background(), cfg); err == nil {
				t.Fatal("malformed config accepted")
			} else if strings.Contains(err.Error(), "panic") {
				t.Fatalf("panic leaked into error: %v", err)
			}
		})
	}
}

// TestRunContext covers the context plumbing: nil contexts run, canceled
// contexts abort with the cause attached.
func TestRunContext(t *testing.T) {
	if _, err := Run(nil, costConfig(BSP, 4, 3)); err != nil {
		t.Fatalf("nil ctx: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Run(ctx, costConfig(BSP, 4, 3))
	if err == nil {
		t.Fatal("canceled ctx accepted")
	}
	if !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("error %q does not mention cancellation", err)
	}
}

// TestNoFaultRunsUnchanged guards the no-fault fast path: attaching the
// fault machinery must not perturb a fault-free run's results (RNG streams,
// event order, virtual time are all preserved).
func TestNoFaultRunsUnchanged(t *testing.T) {
	var base, empty bytes.Buffer
	r1, err := Run(context.Background(), costConfig(ARSGD, 8, 10))
	if err != nil {
		t.Fatal(err)
	}
	r1.WriteJSON(&base)
	cfg := costConfig(ARSGD, 8, 10)
	cfg.Faults = &fault.Schedule{} // present but empty: injector stays off
	r2, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2.WriteJSON(&empty)
	if !bytes.Equal(base.Bytes(), empty.Bytes()) {
		t.Fatal("an empty fault schedule changed the run")
	}
}

// TestServeExpiresRoundsWhoseGradientsWereLost: a partition drops machine
// 1's gradients for a few rounds. The workers that gave up waiting go on and
// send gradients for later rounds, which the shard holds; they must not keep
// the open round alive, so each round expires a barrier timeout after the
// shard last moved and the run stays in lockstep. Were every arrival to
// restart the wait, the round would never expire and every worker would time
// out on every iteration for the rest of the run (282 of 320 here).
func TestServeExpiresRoundsWhoseGradientsWereLost(t *testing.T) {
	cfg := costConfig(BSP, 16, 20)
	cfg.Elastic = true
	cfg.BarrierTimeoutSec = 1.5 * cfg.Workload.MeanIterSec()
	cfg.Faults = goldenFaults(&cfg, "partition@%g:m1:for=%g", 4, 5)
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if n, spread := res.Metrics.Faults.Timeouts, res.Summary().MaxIterSpread; n > 2*cfg.Workers || spread > 2 {
		t.Fatalf("%d barrier timeouts (want at most %d), iteration spread %d (want at most 2)", n, 2*cfg.Workers, spread)
	}
}
