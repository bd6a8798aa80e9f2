package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"

	"disttrain/internal/api"
	"disttrain/internal/trace"
)

// perLayerUnits names every per-layer metric and its unit; BENCHMARK.json's
// per_layer list is the same set (bench_test.go holds them together). A
// traced run prints all of them: a rung the chosen workload does not execute
// reads 0, because that layer did no work in it.
var perLayerUnits = map[string]string{
	"tensor.gemm_gflops.miniresnet":   "GFLOP/s",
	"tensor.gemm_gflops.widemlp":      "GFLOP/s",
	"tensor.gemm_gflops.resnet50conv": "GFLOP/s",
	"tensor.im2col_gbps":              "GB/s",
	"nn.fwd_ms.miniresnet":            "ms",
	"nn.fwdbwd_ms.miniresnet":         "ms",
	"nn.fwd_ms.widemlp":               "ms",
	"nn.fwdbwd_ms.widemlp":            "ms",
	"nn.step_allocs":                  "count",
	"opt.sgd_gbps":                    "GB/s",
	"data.batch_us":                   "us",
	"single.step_ms.miniresnet":       "ms",
	"single.step_ms.widemlp":          "ms",
	"grad.int8_quant_gbps":            "GB/s",
	"grad.int8_dequant_gbps":          "GB/s",
	"grad.f16_quant_gbps":             "GB/s",
	"grad.f16_dequant_gbps":           "GB/s",
	"grad.dgc_compress_gbps":          "GB/s",
	"grad.dgc_decompress_gbps":        "GB/s",
	"xport.frame_encode_gbps":         "GB/s",
	"xport.frame_decode_gbps":         "GB/s",
	"xport.quantvec_encode_gbps":      "GB/s",
	"xport.quantvec_decode_gbps":      "GB/s",
	"xport.tcp_rtt_us":                "us",
	"xport.tcp_gbps":                  "GB/s",
	"xport.chan_gbps":                 "GB/s",
	"live.iter_ms_p50":                "ms",
	"live.iter_ms_p90":                "ms",
	"live.iter_ms_p99":                "ms",
	"live.iter_samples":               "count",
	"live.compute_share":              "share",
	"live.comm_share":                 "share",
	"live.core_ms_per_step":           "ms",
	"live.rendezvous_ms":              "ms",
	"ps.apply_grad_gbps":              "GB/s",
	"ps.snapshot_gbps":                "GB/s",
	"des.events_per_s":                "1/s",
	"simnet.sends_per_s":              "1/s",
	"comm.ring_host_ms.n128":          "ms",
	"comm.hier_host_ms.n256":          "ms",
	"comm.ring_virtual_ms.n128":       "ms",
	"core.host_us_per_msg":            "us",
	"core.msgs_per_step":              "count",
	"core.virtual_compute_share":      "share",
	"core.virtual_network_share":      "share",
	"core.virtual_agg_share":          "share",
	"core.final_loss":                 "loss",
	"sched.pool_speedup":              "x",
	"sched.submit_ns":                 "ns",
	"costmodel.ring_pred_ratio":       "x",
	"trace.overhead_pct":              "%",
	"api.config_ms":                   "ms",
	"host.ref_kernel_ms":              "ms",
}

// Chrome-trace track ids of the live runtime (internal/live's convention):
// workers on pid 0, the coordinator on pid 1.
const (
	liveWorkerPid = 0
	liveCoordPid  = 1
)

// probeShare is the part of a traced run's --seconds spent on the layer
// probes; the rest goes to repetitions of the workload.
const probeShare = 0.4

// tracedRun is the --trace 1 mode: the layer probes, then rounds of the
// workload in alternating variants — untraced, traced (the runtime's Tracer
// hook on) and, for sim-real-mix, inline (no compute pool). Variants are
// compared within a round, where they ran seconds apart under the same host
// conditions. It returns every per-layer metric; rungs the workload does not
// execute stay 0.
func tracedRun(w workload, seed uint64, seconds float64, traceOut string, out *outcome, log io.Writer) (map[string]metric, error) {
	m := make(map[string]metric, len(perLayerUnits))
	for name, unit := range perLayerUnits {
		m[name] = metric{Unit: unit}
	}
	set := func(name string, v float64) { m[name] = metric{Value: v, Unit: perLayerUnits[name]} }
	tr := trace.New()

	run := time.Duration(seconds * float64(time.Second))
	deadline := time.Now().Add(run)
	sp := tr.StartSpan("probes", "bench", benchPid, 0)
	err := runProbes(seed, time.Duration(probeShare*float64(run)), tr, m)
	sp.End()
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}

	warmUp(w, out, log)
	var inline *workload // sim-real-mix without its compute pool
	if w.name == "sim-real-mix" {
		nw := mapSpecs(w, func(s *api.ExperimentSpec) { s.Pool = -1 })
		inline = &nw
	}
	var gaps *gapRecorder
	if w.live {
		gaps = newGapRecorder(w.cases[0].spec.Workers)
	}
	// rep runs one repetition of a variant under a bench span and accounts
	// for it; ok is false when it failed (the run then stops repeating).
	rep := func(variant string, ww workload, vtr *trace.Tracer) (r repResult, ok bool) {
		sp := tr.StartSpan(w.name+" "+variant, "bench", benchPid, 0)
		r, _, err := oneRep(ww, vtr, gaps)
		sp.End()
		if ok = out.add(w, r, err, variant+" rep"); ok {
			fmt.Fprintf(log, "%s rep: %d steps  timed %.3fs  %.1f steps/s\n", variant, r.completed, r.timedSec, r.stepsPerSec())
		}
		return r, ok
	}

	var (
		plain              []repResult
		overhead, poolGain []float64
		liveSelf           = map[string]float64{} // span self time per category
		rendezvousSec      float64
	)
	var roundErr error
	repeatUntil(deadline, func(round int) bool {
		out.noteHostRef()
		// Only the first traced repetition lands in the exported trace;
		// later ones trace into a throw-away tracer, so the file and the
		// heap hold one repetition's spans, not all of them.
		vtr := tr
		if round > 0 {
			vtr = trace.New()
		}
		p, ok := rep("untraced", w, nil)
		if !ok {
			return false
		}
		t, ok := rep("traced", w, vtr)
		if !ok {
			return false
		}
		plain = append(plain, p)
		overhead = append(overhead, 100*(1-t.stepsPerSec()/p.stepsPerSec()))
		if inline != nil {
			i, ok := rep("inline", *inline, nil)
			if !ok {
				return false
			}
			poolGain = append(poolGain, p.stepsPerSec()/i.stepsPerSec())
		}
		if w.live {
			evs, err := events(vtr)
			if err != nil {
				roundErr = err
				return false
			}
			for cat, sec := range selfTimeByCat(evs, liveWorkerPid) {
				liveSelf[cat] += sec
			}
			rendezvousSec += spanSeconds(evs, liveCoordPid, "rendezvous")
		}
		return true
	})
	if roundErr != nil {
		return nil, roundErr
	}
	if len(plain) == 0 {
		return m, nil // the failure is already recorded in out.chk
	}

	set("host.ref_kernel_ms", mean(out.hostRefMs))
	set("trace.overhead_pct", median(overhead))
	set("sched.pool_speedup", median(poolGain))
	set("core.final_loss", median(plain[0].losses))
	if w.live {
		compute, comm := liveSelf["compute"], liveSelf["comm"]+liveSelf["quant"]
		if busy := compute + comm; busy > 0 {
			set("live.compute_share", compute/busy)
			set("live.comm_share", comm/busy)
		}
		set("live.rendezvous_ms", 1e3*rendezvousSec/float64(len(plain)))
		all := gaps.all()
		set("live.iter_ms_p50", percentile(all, 50))
		set("live.iter_ms_p90", percentile(all, 90))
		set("live.iter_ms_p99", percentile(all, 99))
		set("live.iter_samples", float64(len(all)))
		// Core-milliseconds one step occupies: the ranks share min(ranks,
		// cores) cores, so this compares directly with single.step_ms.
		var sps []float64
		for _, p := range plain {
			sps = append(sps, p.stepsPerSec())
		}
		cores := min(w.cases[0].spec.Workers, runtime.GOMAXPROCS(0))
		set("live.core_ms_per_step", 1e3*float64(cores)/slices.Max(sps))
	} else {
		var msgs, steps int64
		var host, comp, netw, agg float64
		for _, p := range plain {
			msgs += p.msgs
			steps += int64(p.completed)
			host += p.timedSec
			comp += p.virtCompute
			netw += p.virtNetwork
			agg += p.virtAgg
		}
		set("core.host_us_per_msg", 1e6*host/float64(msgs))
		set("core.msgs_per_step", float64(msgs)/float64(steps))
		if total := comp + netw + agg; total > 0 {
			set("core.virtual_compute_share", comp/total)
			set("core.virtual_network_share", netw/total)
			set("core.virtual_agg_share", agg/total)
		}
	}

	if traceOut != "" {
		if err := writeTrace(tr, traceOut); err != nil {
			return nil, err
		}
		fmt.Fprintf(log, "wrote Chrome trace (%d events) to %s\n", tr.Len(), traceOut)
	}
	return m, nil
}

// writeTrace writes the tracer's spans as one Chrome trace file.
func writeTrace(tr *trace.Tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
