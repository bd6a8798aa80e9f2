// Command disttrain runs a single distributed-training experiment from
// flags and prints its metrics — the interactive counterpart to the
// paperbench grid.
//
// Cost-only (performance) run:
//
//	disttrain -algo asp -workers 24 -model vgg16 -gbps 10 -iters 30 -shard layerwise
//
// Real-math (accuracy) run on the synthetic shapes task:
//
//	disttrain -algo adpsgd -workers 8 -iters 200 -real -dataset shapes16 -net minicnn
//
// Fault-injection run (deterministic chaos):
//
//	disttrain -algo bsp -workers 8 -iters 60 -elastic -faults 'crash@iter20:w3:restart=5'
//
// Live run over real loopback TCP (wall-clock, see docs/LIVE.md):
//
//	disttrain -algo bsp -workers 4 -iters 50 -real -transport tcp
//
// Live multi-process run (one coordinator, N workers, possibly on other
// machines):
//
//	disttrain -algo arsgd -workers 2 -iters 50 -real -transport tcp -role coordinator -coord :9901
//	disttrain -algo arsgd -workers 2 -iters 50 -real -transport tcp -role worker -coord host:9901
//
// Remote run through the experiment control plane (cmd/expd, see
// docs/CONTROLPLANE.md) — the flags become an ExperimentSpec, the service
// runs it, and metrics stream back live:
//
//	disttrain -server http://127.0.0.1:7070 -algo bsp -workers 4 -iters 50 -real -transport tcp
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"

	"disttrain/internal/api"
	"disttrain/internal/cli"
	"disttrain/internal/core"
	"disttrain/internal/costmodel"
	"disttrain/internal/live"
	"disttrain/internal/report"
	"disttrain/internal/trace"
)

func main() {
	f := cli.Register(flag.CommandLine)
	var (
		jsonOut       = flag.Bool("json", false, "emit the unified RunResult JSON instead of tables")
		sweep         = flag.String("sweep", "", "comma-separated worker counts; runs the config per count and prints a speedup figure (cost-only)")
		tracePath     = flag.String("trace", "", "write a Chrome trace (chrome://tracing) of the run to this path; virtual-time spans for -transport=sim, wall-clock spans for tcp/chan")
		metricsListen = flag.String("metricslisten", "", "serve Prometheus-text GET /metrics on this address for the duration of a live run (e.g. 127.0.0.1:9102)")
		server        = flag.String("server", "", "submit to a control-plane service at this URL (cmd/expd) instead of running locally")
	)
	flag.Parse()

	ctx, stop := cli.Context()
	defer stop()

	if *server != "" {
		if err := traceServerError(*tracePath, *server); err != nil {
			cli.Fatal(err)
		}
		if *sweep != "" || *metricsListen != "" || f.Role != "" || f.Rejoin >= 0 {
			cli.Fatal(fmt.Errorf("-sweep, -metricslisten, -role and -rejoin are local-only (the service runs whole experiments; cmd/expd serves its own /metrics)"))
		}
		runRemote(ctx, f, *server, *jsonOut)
		return
	}

	cfg, err := f.Config()
	if err != nil {
		cli.Fatal(err)
	}

	if f.Transport != "sim" {
		if *sweep != "" {
			cli.Fatal(fmt.Errorf("-sweep is simulator-only"))
		}
		var extra []live.Option
		var tracer *trace.Tracer
		if *tracePath != "" {
			tracer = trace.New()
			extra = append(extra, live.WithTracer(tracer))
		}
		if *metricsListen != "" {
			m := live.NewMetrics()
			serveMetrics(*metricsListen, m)
			extra = append(extra, live.WithMetrics(m))
		}
		res, err := f.RunLive(cfg, extra...)
		if err != nil {
			cli.Fatal(err)
		}
		// Worker roles return a nil Result (the coordinator owns it) but
		// still traced their own ranks, so the trace is written regardless.
		if tracer != nil {
			writeTrace(tracer, *tracePath)
		}
		if res == nil {
			return
		}
		printResult(api.FromLive(res), speedupBase(f), *jsonOut)
		return
	}

	if *metricsListen != "" {
		cli.Fatal(fmt.Errorf("-metricslisten is live-only (sim runs have no transport to scrape; use -transport tcp or chan)"))
	}
	if *sweep != "" {
		if *tracePath != "" {
			cli.Fatal(fmt.Errorf("-trace captures a single run; it cannot combine with -sweep"))
		}
		runSweep(ctx, cfg, *sweep, f.Gbps)
		return
	}

	var tracer *trace.Tracer
	if *tracePath != "" {
		tracer = trace.New()
		cfg.Tracer = tracer
	}

	res := cli.MustRun(ctx, cfg)
	if tracer != nil {
		writeTrace(tracer, *tracePath)
	}
	printResult(api.FromCore(res), speedupBase(f), *jsonOut)
}

// traceServerError rejects the one -trace combination that cannot work:
// submission to a control-plane service, which runs the experiment in its
// own process and has nowhere to write the caller's local trace file.
// Returns nil when either flag is unset.
func traceServerError(tracePath, server string) error {
	if tracePath == "" || server == "" {
		return nil
	}
	return fmt.Errorf("-trace is local-only: the service at %s runs the experiment in its own process and cannot write %s (run without -server to capture a trace)", server, tracePath)
}

// writeTrace writes the collected trace to path, dying on any I/O error —
// a requested trace must never be silently dropped.
func writeTrace(tr *trace.Tracer, path string) {
	w, err := os.Create(path)
	if err != nil {
		cli.Fatal(err)
	}
	if err := tr.WriteJSON(w); err != nil {
		cli.Fatal(err)
	}
	if err := w.Close(); err != nil {
		cli.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "trace written to %s (open in chrome://tracing)\n", path)
}

// serveMetrics exposes the live collector on addr for the duration of the
// run: `curl http://addr/metrics`. The listener dies with the process; a
// bind failure is fatal so a requested scrape endpoint never silently
// fails to exist.
func serveMetrics(addr string, m *live.Metrics) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		cli.Fatal(fmt.Errorf("-metricslisten %s: %w", addr, err))
	}
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", m)
	fmt.Fprintf(os.Stderr, "serving metrics on http://%s/metrics\n", ln.Addr())
	go http.Serve(ln, mux)
}

// runRemote submits the flags' spec to a control-plane service, streams its
// metrics to stderr while it runs, and prints the final result exactly as a
// local run would — for sim jobs the -json bytes are identical to a local
// export, which is the round-trip contract docs/CONTROLPLANE.md documents.
func runRemote(ctx context.Context, f *cli.Flags, base string, jsonOut bool) {
	spec, err := f.Spec()
	if err != nil {
		cli.Fatal(err)
	}
	client := &api.Client{Base: base}
	st, err := client.Submit(ctx, spec)
	if err != nil {
		cli.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "submitted %s (%s)\n", st.ID, st.State)
	if err := client.StreamMetrics(ctx, st.ID, func(p api.MetricPoint) {
		switch {
		case p.Worker < 0:
			fmt.Fprintf(os.Stderr, "iter %4d  epoch %.2f  loss %.4f  test-err %.4f\n",
				p.Iter, p.Epoch, p.TrainLoss, p.TestErr)
		case p.Worker == 0:
			// One rank stands in for all of them on the live path; the full
			// per-worker stream stays available on the metrics endpoint.
			fmt.Fprintf(os.Stderr, "w0 iter %4d  loss %.4f\n", p.Iter, p.TrainLoss)
		}
	}); err != nil {
		cli.Fatal(err)
	}
	st, err = client.Wait(ctx, st.ID, 0)
	if err != nil {
		cli.Fatal(err)
	}
	if st.State != api.StateDone {
		cli.Fatal(fmt.Errorf("experiment %s %s: %s", st.ID, st.State, st.Error))
	}
	if jsonOut {
		raw, err := client.ResultJSON(ctx, st.ID)
		if err != nil {
			cli.Fatal(err)
		}
		os.Stdout.Write(raw)
		return
	}
	printResult(st.Result, speedupBase(f), false)
}

// printResult renders the unified result: raw RunResult JSON in -json mode,
// the shared report table (plus the convergence figure when the run traced
// one) otherwise.
func printResult(res *api.RunResult, speedupBase float64, jsonOut bool) {
	if jsonOut {
		if err := res.WriteJSON(os.Stdout); err != nil {
			cli.Fatal(err)
		}
		return
	}
	fmt.Print(report.ResultTable(res, speedupBase).String())
	if fig := report.ConvergenceFigure(res); fig != nil {
		fmt.Println()
		fmt.Print(fig.String())
	}
}

// speedupBase computes the single-GPU samples/s baseline from the flags'
// cost-model profile (0 hides the speedup row if the profile is unknown —
// the run itself would have failed first).
func speedupBase(f *cli.Flags) float64 {
	profile, err := costmodel.ProfileByName(f.Model)
	if err != nil {
		return 0
	}
	return cli.SpeedupBase(costmodel.NewWorkload(profile, costmodel.TitanV(), 128))
}

// runSweep re-runs the configuration at each worker count and prints the
// speedup curve (table + ASCII chart) over the single-GPU baseline.
func runSweep(ctx context.Context, cfg core.Config, list string, gbps float64) {
	var counts []int
	for _, part := range strings.Split(list, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			cli.Fatal(fmt.Errorf("bad -sweep entry %q", part))
		}
		counts = append(counts, n)
	}
	fig := report.Figure{Title: fmt.Sprintf("%s %s speedup vs workers (%gGbps)",
		cfg.Algo, cfg.Workload.Profile.Name, gbps)}
	s := fig.NewSeries(string(cfg.Algo))
	base := cli.SpeedupBase(cfg.Workload)
	for _, n := range counts {
		c := cfg
		c.Cluster = cli.Cluster(gbps, n)
		c.Workers = n
		c.Real = nil // sweeps are cost-only
		if n < 2 && (c.Algo == core.ADPSGD || c.Algo == core.GoSGD) {
			s.Add(float64(n), 1)
			continue
		}
		res := cli.MustRun(ctx, c)
		s.Add(float64(n), res.Throughput/base)
	}
	fmt.Print(fig.String())
	fmt.Println()
	fmt.Print(fig.Chart(56, 12))
}
