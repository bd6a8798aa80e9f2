package live

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"disttrain/internal/core"
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

// TestChanTraceExport confirms the channel transport records the same span
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
// traces on a track of its own, tid threadTid+rank (docs/OBSERVABILITY.md),
// where its exchanges may overlap the compute track's spans: every active
// records one adpsgd-exchange span per iteration there, and none lands
// anywhere else.
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
		case e.Name == "adpsgd-exchange":
			if e.Pid != workerPid || e.Tid < threadTid || (e.Tid-threadTid)%2 != 0 {
				t.Fatalf("exchange span on pid %d tid %d", e.Pid, e.Tid)
			}
			exchanges[e.Tid-threadTid]++
		case e.Name == "compute" && e.Tid >= threadTid:
			t.Fatalf("compute span on the thread track %d", e.Tid)
		}
	}
	for r := 0; r < workers; r += 2 {
		if exchanges[r] != cfg.Iters {
			t.Errorf("active %d traced %d exchanges, want %d", r, exchanges[r], cfg.Iters)
		}
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
