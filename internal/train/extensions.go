package train

import (
	"fmt"

	"disttrain/internal/cluster"
	"disttrain/internal/core"
	"disttrain/internal/report"
)

// runExtensions produces the artifacts for this repository's extensions
// beyond the paper's own tables/figures: straggler sensitivity, traffic
// burstiness (per-machine NIC utilization spread), realized staleness
// bounds, and the AD-PSGD deadlock demonstration.
func runExtensions(o Options) ([]string, error) {
	iters := 40
	workers := 16
	if o.Quick {
		iters, workers = 10, 8
	}
	var out []string

	// --- E1: straggler sensitivity ------------------------------------
	stragglerAlgos := []core.Algo{core.BSP, core.ARSGD, core.DPSGD, core.ASP, core.ADPSGD}
	t1 := report.Table{
		Title:  "E1 — throughput retained under stragglers (10% of iterations stall 6x)",
		Header: []string{"algorithm", "clean (samples/s)", "stragglers", "retained"},
	}
	for _, algo := range stragglerAlgos {
		run := func(straggle bool) (*core.Result, error) {
			cfg := perfConfig(algo, "resnet50", workers, 56, iters, o.seed())
			if algo == core.BSP {
				cfg.LocalAgg = true
			}
			if straggle {
				cfg.Workload.GPU.StragglerProb = 0.1
				cfg.Workload.GPU.StragglerMult = 6
			}
			return o.run(cfg)
		}
		o.logf("ext: stragglers %s", algo)
		clean, err := run(false)
		if err != nil {
			return nil, err
		}
		slow, err := run(true)
		if err != nil {
			return nil, err
		}
		t1.AddRow(string(algo),
			report.Fmt(clean.Throughput, 0),
			report.Fmt(slow.Throughput, 0),
			report.Fmt(100*slow.Throughput/clean.Throughput, 0)+"%")
	}
	out = append(out, t1.String())

	// --- E2: traffic burstiness ----------------------------------------
	t2 := report.Table{
		Title:  "E2 — per-machine NIC load spread, (max-min)/max of busy seconds (0 = even)",
		Header: []string{"algorithm", "spread", "cross-machine GB"},
	}
	for _, algo := range []core.Algo{core.ASP, core.BSP, core.ARSGD, core.ADPSGD} {
		// Needs ≥3 machines: with two, centralized traffic is symmetric
		// (grads in = params out on both sides) and the hot spot vanishes.
		cfg := perfConfig(algo, "resnet50", 16, 10, iters, o.seed())
		if algo == core.BSP {
			cfg.LocalAgg = true
		}
		o.logf("ext: burstiness %s", algo)
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		t2.AddRow(string(algo),
			report.Fmt(res.Net.UtilizationSpread(), 3),
			report.Fmt(float64(res.Net.CrossMachineBytes)/1e9, 1))
	}
	out = append(out, t2.String())

	// --- E3: realized staleness ----------------------------------------
	t3 := report.Table{
		Title:  "E3 — realized staleness (max fastest-slowest iteration gap) under stragglers",
		Header: []string{"algorithm", "bound", "observed"},
	}
	staleRuns := []struct {
		name  string
		algo  core.Algo
		s     int
		bound string
	}{
		{"BSP", core.BSP, 0, "1 (barrier)"},
		{"AR-SGD", core.ARSGD, 0, "1 (barrier)"},
		{"SSP s=2", core.SSP, 2, "s + in-flight"},
		{"SSP s=5", core.SSP, 5, "s + in-flight"},
		{"ASP", core.ASP, 0, "unbounded"},
	}
	for _, sr := range staleRuns {
		cfg := perfConfig(sr.algo, "resnet50", workers, 56, iters, o.seed())
		cfg.Staleness = sr.s
		cfg.Workload.GPU.StragglerProb = 0.2
		cfg.Workload.GPU.StragglerMult = 8
		o.logf("ext: staleness %s", sr.name)
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		t3.AddRow(sr.name, sr.bound, fmt.Sprintf("%d", res.Metrics.MaxSpread))
	}
	out = append(out, t3.String())

	// --- E4: AD-PSGD deadlock demonstration -----------------------------
	t4 := report.Table{
		Title:  "E4 — AD-PSGD partner-graph ablation (Section IV-C deadlock scenario)",
		Header: []string{"variant", "stuck comm procs", "iterations completed"},
	}
	for _, naive := range []bool{false, true} {
		cfg := perfConfig(core.ADPSGD, "resnet50", workers, 56, iters, o.seed())
		cfg.ADPSGDNoBipartite = naive
		name := "bipartite (paper)"
		if naive {
			name = "unconstrained (naive)"
		}
		o.logf("ext: deadlock %s", name)
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		t4.AddRow(name, fmt.Sprintf("%d", res.StuckCommThreads()), fmt.Sprintf("%d", res.Metrics.TotalIters()))
	}
	out = append(out, t4.String())

	// --- E5: reviewed-but-not-selected baselines ------------------------
	t5 := report.Table{
		Title:  "E5 — extension baselines vs AR-SGD (cost-only, ResNet-50 @ 56Gbps)",
		Header: []string{"algorithm", "speedup vs 1 GPU", "bytes/iter/worker"},
	}
	for _, algo := range []core.Algo{core.ARSGD, core.DPSGD, core.AdaComm, core.Hogwild} {
		cfg := perfConfig(algo, "resnet50", workers, 56, iters, o.seed())
		if algo == core.AdaComm {
			cfg.Tau = 8
		}
		if algo == core.Hogwild {
			cfg.Cluster = cluster.Config{
				Machines:          1,
				WorkersPerMachine: workers,
				InterBytesPerSec:  cluster.Gbps(56),
				IntraBytesPerSec:  cluster.Gbps(128),
				LatencySec:        1e-6,
			}
		}
		o.logf("ext: baseline %s", algo)
		res, err := o.run(cfg)
		if err != nil {
			return nil, err
		}
		base := float64(cfg.Workload.Batch) / cfg.Workload.MeanIterSec()
		t5.AddRow(string(algo),
			report.Fmt(res.Throughput/base, 2),
			report.FmtBytes(res.BytesPerIterPerWorker))
	}
	out = append(out, t5.String())

	return out, nil
}
