package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/metrics"
	"disttrain/internal/trace"
)

// promLine is the exposition-format lint every /metrics line must pass:
// name{labels} value.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\\n])*")*\})? [-+]?([0-9.eE+-]+|Inf|NaN)$`)

func lintProm(t *testing.T, body string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line fails exposition-format lint: %q", line)
		}
	}
}

// scrape renders one /metrics page through the HTTP handler and returns the
// body plus every sample parsed into name{labels} -> value.
func scrape(t *testing.T, m *Metrics) (string, map[string]float64) {
	t.Helper()
	rec := httptest.NewRecorder()
	m.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable sample line %q", line)
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		samples[key] = v
	}
	return string(body), samples
}

// TestLoopbackTraceExport is the acceptance test for live tracing: a
// loopback BSP run with WithTracer must export a Chrome trace that parses
// as JSON and contains a compute span and a comm span for every rank.
func TestLoopbackTraceExport(t *testing.T) {
	const workers = 4
	tr := trace.New()
	cfg := liveConfig(core.BSP, workers, 6, 11)
	if _, err := RunLoopback(cfg, WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	compute := make(map[int]bool)
	comm := make(map[int]bool)
	var rendezvous, barrier bool
	for _, e := range evs {
		switch {
		case e.Cat == "compute" && e.Pid == workerPid:
			compute[e.Tid] = true
		case e.Cat == "comm" && e.Pid == workerPid:
			comm[e.Tid] = true
		case e.Name == "rendezvous" && e.Pid == coordPid:
			rendezvous = true
		case e.Name == "start-barrier":
			barrier = true
		}
	}
	for r := 0; r < workers; r++ {
		if !compute[r] {
			t.Errorf("rank %d has no compute span", r)
		}
		if !comm[r] {
			t.Errorf("rank %d has no comm span", r)
		}
	}
	if !rendezvous {
		t.Error("no coordinator rendezvous span")
	}
	if !barrier {
		t.Error("no start-barrier span")
	}
}

// TestChanTraceExport confirms the pipe mesh records the same span
// categories (an in-process run with no sockets still traces).
func TestChanTraceExport(t *testing.T) {
	tr := trace.New()
	cfg := liveConfig(core.ARSGD, 3, 5, 7)
	if _, err := RunChan(cfg, WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"compute"`, `"allreduce"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("chan trace missing %s:\n%s", want, out)
		}
	}
}

// TestADPSGDExchangeSpansOnThreadTrack: live AD-PSGD's communication thread
// traces on a track of its own, tid core.ThreadTid+rank
// (docs/OBSERVABILITY.md), where its exchanges may overlap the compute track's
// spans: every active records one swap span per iteration there, and none
// lands anywhere else.
func TestADPSGDExchangeSpansOnThreadTrack(t *testing.T) {
	const workers = 4
	tr := trace.New()
	cfg := liveConfig(core.ADPSGD, workers, 6, 7)
	if _, err := RunChan(cfg, WithTracer(tr)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	exchanges := make(map[int]int)
	for _, e := range evs {
		switch {
		case e.Name == "swap":
			if e.Pid != workerPid || e.Tid < core.ThreadTid || (e.Tid-core.ThreadTid)%2 != 0 {
				t.Fatalf("exchange span on pid %d tid %d", e.Pid, e.Tid)
			}
			exchanges[e.Tid-core.ThreadTid]++
		case e.Name == "compute" && e.Tid >= core.ThreadTid:
			t.Fatalf("compute span on the thread track %d", e.Tid)
		}
	}
	for r := 0; r < workers; r += 2 {
		if exchanges[r] != cfg.Iters {
			t.Errorf("active %d traced %d exchanges, want %d", r, exchanges[r], cfg.Iters)
		}
	}
}

// ledgerSpecs is one spec per algorithm the live runtime runs, plus BSP with
// local aggregation for the gather and broadcast steps.
func ledgerSpecs(t *testing.T) []core.Config {
	var specs []core.Config
	for _, algo := range append(core.Algos(), core.DPSGD, core.AdaComm, core.Hogwild) {
		cfg := liveConfig(algo, 4, 6, 5)
		if algo == core.AdaComm {
			cfg.Tau = 2
		}
		if Validate(&cfg) == nil {
			specs = append(specs, cfg)
		}
	}
	if len(specs) != 9 {
		t.Fatalf("%d live-runnable algorithms, want 9", len(specs))
	}
	la := liveConfig(core.BSP, 4, 6, 5)
	la.LocalAgg = true
	return append(specs, la)
}

func specName(cfg core.Config) string {
	if cfg.LocalAgg {
		return string(cfg.Algo) + "-localagg"
	}
	return string(cfg.Algo)
}

// workerSpans is the (name, category) multiset of the ledger's spans — the
// compute and comm categories — per rank, a rank's second-thread track folded
// into the rank.
func workerSpans(t *testing.T, tr *trace.Tracer) map[int]map[[2]string]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	out := map[int]map[[2]string]int{}
	for _, e := range evs {
		if e.Cat != "compute" && e.Cat != "comm" {
			continue
		}
		r := e.Tid % core.ThreadTid
		if out[r] == nil {
			out[r] = map[[2]string]int{}
		}
		out[r][[2]string{e.Name, e.Cat}]++
	}
	return out
}

// TestSpanVocabularySimLive: both runtimes book through core.Ledger, so a
// simulated and a live run of one spec trace the same steps, the same number
// of times, on every rank. SSP's pulls and AdaComm's pushes follow timing,
// so for those two only the steps must match, not their counts.
func TestSpanVocabularySimLive(t *testing.T) {
	for _, cfg := range ledgerSpecs(t) {
		t.Run(specName(cfg), func(t *testing.T) {
			simCfg := cfg
			simCfg.Tracer = trace.New()
			simRun(t, simCfg)
			tr := trace.New()
			if _, err := RunChan(cfg, WithTracer(tr)); err != nil {
				t.Fatal(err)
			}
			sim, live := workerSpans(t, simCfg.Tracer), workerSpans(t, tr)
			if cfg.Algo == core.SSP || cfg.Algo == core.AdaComm {
				for _, spans := range []map[int]map[[2]string]int{sim, live} {
					for _, ms := range spans {
						for k := range ms {
							ms[k] = 1
						}
					}
				}
			}
			if len(sim) != cfg.Workers || !reflect.DeepEqual(sim, live) {
				t.Fatalf("per-rank spans differ:\nsim  %v\nlive %v", sim, live)
			}
		})
	}
}

// TestBreakdownSimLive: every phase of the paper's breakdown the simulator
// books time to for a spec, a TCP run of it books wall time to.
func TestBreakdownSimLive(t *testing.T) {
	for _, cfg := range ledgerSpecs(t) {
		t.Run(specName(cfg), func(t *testing.T) {
			sim := simRun(t, cfg).Metrics.MeanBreakdown()
			res, err := RunLoopback(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for p, sec := range sim {
				if sec > 0 && res.Breakdown[p] <= 0 {
					t.Errorf("%v: sim books %gs, tcp %gs", metrics.Phase(p), sec, res.Breakdown[p])
				}
			}
			s := res.Summary()
			if s.ComputeSec != res.Breakdown[metrics.Compute] || s.BytesPerIterPerWorker <= 0 {
				t.Fatalf("summary does not carry the breakdown and traffic: %+v", s)
			}
		})
	}
}

// TestLoopbackMetricsScrape runs loopback BSP with a Metrics collector,
// scrapes the handler mid-run and after completion, and requires the text
// format to lint and the counters to be monotonic between the two scrapes.
func TestLoopbackMetricsScrape(t *testing.T) {
	const workers = 3
	m := NewMetrics()
	cfg := liveConfig(core.BSP, workers, 8, 5)

	mid := make(chan struct{}, 1)
	progress := func(rank, iter int, loss float64) {
		if iter == 2 {
			select {
			case mid <- struct{}{}:
			default:
			}
		}
	}
	type scrapeResult struct {
		body    string
		samples map[string]float64
	}
	midScrape := make(chan scrapeResult, 1)
	go func() {
		<-mid
		body, samples := scrape(t, m)
		midScrape <- scrapeResult{body, samples}
	}()

	res, err := RunLoopback(cfg, WithMetrics(m), WithProgress(progress))
	if err != nil {
		t.Fatal(err)
	}
	first := <-midScrape
	lintProm(t, first.body)
	body, final := scrape(t, m)
	lintProm(t, body)

	// Every counter sampled mid-run must not have decreased by the end.
	for key, v := range first.samples {
		if !strings.Contains(key, "_total") {
			continue
		}
		fv, ok := final[key]
		if !ok {
			t.Errorf("counter %s disappeared between scrapes", key)
			continue
		}
		if fv < v {
			t.Errorf("counter %s went backwards: %v -> %v", key, v, fv)
		}
	}

	// Per-rank families cover every worker rank plus the PS rank.
	for r := 0; r <= workers; r++ {
		key := `disttrain_xport_frames_sent_total{rank="` + strconv.Itoa(r) + `"}`
		if v, ok := final[key]; !ok || v <= 0 {
			t.Errorf("missing or zero %s (present=%v, v=%v)", key, ok, v)
		}
	}
	for r := 0; r < workers; r++ {
		key := `disttrain_live_worker_iterations{rank="` + strconv.Itoa(r) + `"}`
		if v := final[key]; v != float64(cfg.Iters) {
			t.Errorf("%s = %v, want %d", key, v, cfg.Iters)
		}
	}
	if v := final["disttrain_live_workers_done"]; v != float64(workers) {
		t.Errorf("workers_done = %v, want %d", v, workers)
	}
	if res.Net.FramesSent == 0 {
		t.Error("result lost transport counters")
	}
}

// TestLoopbackMetricsScrapeChaos: after a loopback run under a crash
// schedule, the coordinator's scraped counters agree with the Result — the
// deaths and rejoins its loop counted, and every rank done (one of them
// written off).
func TestLoopbackMetricsScrapeChaos(t *testing.T) {
	cfg := liveConfig(core.BSP, 3, 8, 42)
	cfg.Elastic = true
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 3, Worker: 1, Restart: 0.1},
		{Kind: fault.Crash, AtIter: 5, Worker: 2},
	}}
	m := NewMetrics()
	res, err := RunLoopback(cfg, WithMetrics(m), WithCheckpoints(t.TempDir(), 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Deaths != 2 || res.Rejoins != 1 {
		t.Fatalf("run counted %d deaths and %d rejoins, want 2 and 1", res.Deaths, res.Rejoins)
	}
	body, final := scrape(t, m)
	lintProm(t, body)
	for name, want := range map[string]int64{
		"disttrain_live_deaths_total":  res.Deaths,
		"disttrain_live_rejoins_total": res.Rejoins,
		"disttrain_live_workers_done":  int64(cfg.Workers),
	} {
		if v := final[name]; v != float64(want) {
			t.Errorf("%s = %v, want %d", name, v, want)
		}
	}
}
