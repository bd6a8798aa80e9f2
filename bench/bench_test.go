package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"disttrain/internal/trace"
)

// smokeScale shrinks every frozen iteration count so all five workloads,
// checks on, run in a few seconds.
const smokeScale = 0.05

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// fullDeclaration is BENCHMARK.json with the fields the tests hold the code to.
type fullDeclaration struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

func loadDeclaration(t *testing.T) fullDeclaration {
	t.Helper()
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d fullDeclaration
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestDeclarationMatchesCode holds BENCHMARK.json and the program together:
// same workloads, same metric names and units, names and bounds inside the
// limits the benchmark contract sets.
func TestDeclarationMatchesCode(t *testing.T) {
	d := loadDeclaration(t)
	ws := buildWorkloads(1, 1)
	if len(d.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(d.Workloads), len(ws))
	}
	for i, w := range ws {
		if d.Workloads[i].Name != w.name {
			t.Errorf("workload %d: declared %q, program %q", i, d.Workloads[i].Name, w.name)
		}
		if why := d.Workloads[i].Why; why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: why must be one line of 1..200 characters (has %d)", w.name, len(why))
		}
	}

	e2e := endToEnd(ws[0], &outcome{})
	if len(d.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics, the program prints %d", len(d.EndToEnd), len(e2e))
	}
	seen := map[string]bool{}
	sawSetup := false
	for _, m := range d.EndToEnd {
		if got, ok := e2e[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end %q: declared unit %q, program prints %+v (present=%v)", m.Name, m.Unit, got, ok)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end %q: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			sawSetup = m.Unit == "s" && m.Better == "lower"
		}
		seen[m.Name] = true
	}
	if !sawSetup {
		t.Error(`end_to_end must hold setup_s with unit "s", better "lower"`)
	}
	if len(d.PerLayer) != len(perLayerUnits) {
		t.Errorf("BENCHMARK.json lists %d per-layer metrics, the program has %d", len(d.PerLayer), len(perLayerUnits))
	}
	for _, m := range d.PerLayer {
		if unit, ok := perLayerUnits[m.Name]; !ok || unit != m.Unit {
			t.Errorf("per-layer %q: declared unit %q, program has %q (present=%v)", m.Name, m.Unit, unit, ok)
		}
		if seen[m.Name] {
			t.Errorf("metric name %q used twice", m.Name)
		}
		seen[m.Name] = true
	}
	for name := range seen {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q does not match %v", name, nameRE)
		}
	}
	for _, m := range append(append([]declaredMetric{}, d.EndToEnd...), d.PerLayer...) {
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
	}
}

// lastLine parses the contract object from the last line of a run's stdout.
func lastLine(t *testing.T, stdout string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var r result
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&r); err != nil {
		t.Fatalf("last stdout line is not the result object: %v\n%s", err, stdout)
	}
	return r
}

// TestSmokeEndToEnd runs every workload at smoke size through the command's
// own entry point, checks on, and asserts the printed object carries every
// declared end-to-end metric with its unit and a non-zero value. The whole
// file takes about 18 s; `go test -short` leaves out the wide-MLP workloads
// and the traced runs and takes 3 s.
func TestSmokeEndToEnd(t *testing.T) {
	d := loadDeclaration(t)
	for _, w := range d.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() && (w.Name == "tcp-arsgd-comm" || w.Name == "tcp-asp-int8") {
				t.Skip("builds a dozen 3.15 M-parameter models: 4 s")
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.Name, "--seed", "11", "--seconds", "0.2", "--trace", "0"},
				smokeScale, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit code %d\n%s", code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, stderr.String())
			}
			if len(r.Metrics) != len(d.EndToEnd) {
				t.Errorf("printed %d metrics, declared %d", len(r.Metrics), len(d.EndToEnd))
			}
			for _, m := range d.EndToEnd {
				got, ok := r.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("metric %q: want unit %q, got %+v (present=%v)", m.Name, m.Unit, got, ok)
				}
				if !(got.Value > 0) || math.IsInf(got.Value, 0) {
					t.Errorf("metric %q = %v, want a positive finite value", m.Name, got.Value)
				}
			}
		})
	}
}

// TestSmokeTraced runs the traced mode once per runtime kind and asserts
// every declared per-layer metric is printed, the rungs the workload
// executes are non-zero, and the Chrome trace loads.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the layer probes run at the workloads' sizes: 8 s")
	}
	d := loadDeclaration(t)
	for _, tc := range []struct {
		workload string
		nonZero  []string
	}{
		{"tcp-arsgd-compute", []string{"live.iter_samples", "live.compute_share", "live.comm_share",
			"live.rendezvous_ms", "tensor.gemm_gflops.widemlp", "xport.tcp_rtt_us", "costmodel.ring_pred_ratio"}},
		{"sim-real-mix", []string{"sched.pool_speedup", "core.msgs_per_step", "core.virtual_compute_share",
			"core.final_loss", "grad.dgc_compress_gbps", "des.events_per_s"}},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			tracePath := filepath.Join(t.TempDir(), "trace.json")
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", tc.workload, "--seed", "12", "--seconds", "0.5", "--trace", "1",
				"--traceout", tracePath}, smokeScale, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit code %d\n%s", code, stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct {
				t.Fatalf("checks failed\n%s", stderr.String())
			}
			if len(r.Metrics) != len(d.PerLayer) {
				t.Errorf("printed %d metrics, declared %d", len(r.Metrics), len(d.PerLayer))
			}
			for _, m := range d.PerLayer {
				if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("metric %q: want unit %q, got %+v (present=%v)", m.Name, m.Unit, got, ok)
				}
			}
			for _, name := range tc.nonZero {
				if r.Metrics[name].Value == 0 {
					t.Errorf("metric %q is 0 on %s", name, tc.workload)
				}
			}
			buf, err := os.ReadFile(tracePath)
			if err != nil {
				t.Fatal(err)
			}
			var evs []trace.Event
			if err := json.Unmarshal(buf, &evs); err != nil || len(evs) == 0 {
				t.Fatalf("Chrome trace does not load: %v (%d events)", err, len(evs))
			}
		})
	}
}

// TestUnknownWorkload pins the usage error: no result line, exit code 2.
func TestUnknownWorkload(t *testing.T) {
	var stdout bytes.Buffer
	if code := run([]string{"--workload", "nope"}, 1, &stdout, io.Discard); code != 2 || stdout.Len() != 0 {
		t.Fatalf("code %d, stdout %q", code, stdout.String())
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(xs, n=4) for each case, computed with CPython.
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 ((8.25-2.75)/5.5)", got)
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %v", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median empty = %v", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// TestEndToEndReduction pins how repetitions become metrics: steps_per_s and
// cpu_ms_per_step add up the fastest slice of every kind, wall and CPU each
// taken on its own; setup_s is the fastest repetition's, memory the median.
func TestEndToEndReduction(t *testing.T) {
	rep := func(setup, rss float64, slices ...slice) repResult {
		return repResult{attempted: 100, completed: 100, setupSec: setup, wireBytes: 4000, peakRSSMB: rss, slices: slices}
	}
	out := &outcome{reps: []repResult{
		rep(0.3, 50, slice{0, 60, 2, 1.0}, slice{1, 40, 1.0, 0.5}),
		rep(0.5, 70, slice{0, 60, 0.6, 1.2}, slice{1, 40, 0.8, 0.7}),
		rep(0.2, 60, slice{0, 60, 4, 0.4}, slice{1, 40, 0.4, 0.6}),
	}}
	got := endToEnd(workload{}, out)
	// kind 0: 60 steps, wall 0.6, cpu 0.4; kind 1: 40 steps, wall 0.4, cpu 0.5.
	for name, want := range map[string]float64{"steps_per_s": 100, "setup_s": 0.2, "cpu_ms_per_step": 9,
		"peak_rss_mb": 60, "wire_bytes_per_step": 40} {
		if math.Abs(got[name].Value-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name].Value, want)
		}
	}
	if least(nil) != 0 {
		t.Error("least of nothing must be 0")
	}
}

// TestRepeatUntil pins the run length: at least one round, and no round
// started that, lasting as long as the longest so far, would pass the deadline.
func TestRepeatUntil(t *testing.T) {
	rounds := 0
	repeatUntil(time.Now().Add(-time.Second), func(int) bool { rounds++; return true })
	if rounds != 1 {
		t.Errorf("past deadline: %d rounds, want 1", rounds)
	}
	rounds = 0
	start := time.Now()
	repeatUntil(start.Add(100*time.Millisecond), func(int) bool { rounds++; time.Sleep(30 * time.Millisecond); return true })
	if took := time.Since(start); rounds < 2 || took > 150*time.Millisecond {
		t.Errorf("%d rounds in %v, want at least 2 and no round past the deadline", rounds, took)
	}
	rounds = 0
	repeatUntil(time.Now().Add(time.Hour), func(int) bool { rounds++; return rounds < 3 })
	if rounds != 3 {
		t.Errorf("round returned false after 3 rounds, ran %d", rounds)
	}
}

func TestJudge(t *testing.T) {
	flat := func(v float64) []float64 { return []float64{v, v, v, v, v} }
	noisy := []float64{80, 90, 100, 110, 120}
	lower := declaredMetric{Name: "cpu_ms_per_step", Better: "lower", Bound: 0.10}
	higher := declaredMetric{Name: "steps_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		name      string
		d         declaredMetric
		bounded   bool
		base, cur []float64
		want      string
	}{
		{"unchanged", lower, true, flat(100), flat(100), verdictOK},
		{"within bound", lower, true, flat(100), flat(108), verdictOK},
		{"slower beyond bound", lower, true, flat(100), flat(115), verdictRegression},
		{"faster is never a regression", lower, true, flat(100), flat(50), verdictOK},
		{"throughput drop", higher, true, flat(100), flat(85), verdictRegression},
		{"throughput gain", higher, true, flat(100), flat(130), verdictOK},
		{"noise wider than bound", lower, true, noisy, noisy, verdictUnresolved},
		{"noisy but far beyond the noise", lower, true, noisy, flat(200), verdictRegression},
		{"per-layer is only reported", lower, false, flat(100), flat(300), verdictReported},
	} {
		if _, got := judge(tc.d, tc.bounded, tc.base, tc.cur); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, lines ...string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	host := hostStamp{NumCPU: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0"}
	rec := func(host hostStamp, workload string, seed uint64, steps, wire float64) string {
		buf, err := json.Marshal(record{Workload: workload, Seed: seed, Seconds: 15, Host: host,
			result: result{Correct: true, Attempted: 1, Metrics: map[string]metric{
				"steps_per_s": {steps, "1/s"}, "wire_bytes_per_step": {wire, "bytes"}, "des.events_per_s": {steps / 20, "1/s"}}}})
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}
	decl := write("BENCHMARK.json", `{"end_to_end":[{"name":"steps_per_s","unit":"1/s","better":"higher","bound":0.1},
		{"name":"wire_bytes_per_step","unit":"bytes","better":"lower","bound":0.01}],
		"per_layer":[{"name":"des.events_per_s","unit":"1/s","better":"higher"}]}`)
	base := write("a.jsonl", rec(host, "w1", 1, 100, 500), rec(host, "w1", 2, 101, 501), rec(host, "w1", 3, 99, 502),
		rec(host, "w2", 1, 10, 7), rec(host, "w2", 2, 10, 7))
	same := write("b.jsonl", rec(host, "w1", 3, 98, 502), rec(host, "w1", 1, 100, 500), rec(host, "w1", 2, 102, 501),
		rec(host, "w2", 1, 10, 7), rec(host, "w2", 2, 10, 7.01))
	slow := write("c.jsonl", rec(host, "w1", 1, 70, 500), rec(host, "w1", 2, 71, 501), rec(host, "w1", 3, 69, 502))

	var out bytes.Buffer
	if err := compareFiles(decl, base, same, &out); err != nil {
		t.Fatalf("same-commit compare failed: %v\n%s", err, out.String())
	}
	for _, want := range []string{"w1", "w2", "steps_per_s", "des.events_per_s", verdictOK, "of 100"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
	// w1's wire bytes are equal seed by seed (in another order); w2's differ
	// on seed 2 by less than the bound.
	if n := strings.Count(out.String(), verdictIdentical); n != 1 {
		t.Errorf("want exactly one %q verdict, got %d:\n%s", verdictIdentical, n, out.String())
	}
	out.Reset()
	if err := compareFiles(decl, base, slow, &out); err == nil || !strings.Contains(out.String(), verdictRegression) {
		t.Fatalf("a 30%% drop must fail the compare (err=%v):\n%s", err, out.String())
	}
	if strings.Contains(out.String(), "w2") {
		t.Errorf("w2 is missing from one file and must not be compared:\n%s", out.String())
	}

	// Records from another host, or a file that mixes hosts, are refused.
	other := host
	other.CPUModel = "another CPU"
	elsewhere := write("d.jsonl", rec(other, "w1", 1, 100, 500))
	mixed := write("e.jsonl", rec(host, "w1", 1, 100, 500), rec(other, "w1", 2, 100, 501))
	for _, path := range []string{elsewhere, mixed} {
		if err := compareFiles(decl, base, path, io.Discard); err == nil {
			t.Errorf("compare against %s must be refused", filepath.Base(path))
		}
	}
}

func TestSelfTimeByCat(t *testing.T) {
	// Track 0: a 100 µs allreduce holding a 30 µs quantize, then a 50 µs
	// compute. Track 1: one 40 µs compute. Another pid is ignored.
	evs := []trace.Event{
		{Name: "allreduce", Cat: "comm", Ts: 0, Dur: 100, Pid: 0, Tid: 0},
		{Name: "quantize", Cat: "quant", Ts: 10, Dur: 30, Pid: 0, Tid: 0},
		{Name: "compute", Cat: "compute", Ts: 100, Dur: 50, Pid: 0, Tid: 0},
		{Name: "compute", Cat: "compute", Ts: 5, Dur: 40, Pid: 0, Tid: 1},
		{Name: "rendezvous", Cat: "coord", Ts: 0, Dur: 999, Pid: 1, Tid: 0},
	}
	got := selfTimeByCat(evs, 0)
	want := map[string]float64{"comm": 70e-6, "quant": 30e-6, "compute": 90e-6}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for cat, sec := range want {
		if math.Abs(got[cat]-sec) > 1e-12 {
			t.Errorf("%s self time %v, want %v", cat, got[cat], sec)
		}
	}
	if got := spanSeconds(evs, 1, "rendezvous"); math.Abs(got-999e-6) > 1e-12 {
		t.Errorf("rendezvous span seconds %v", got)
	}
}

// TestChecksCatchBrokenOutputs feeds the verifiers outputs that must fail.
func TestChecksCatchBrokenOutputs(t *testing.T) {
	w := workload{name: "w", deterministic: true, lossCeiling: 3}
	good := repResult{attempted: 8, completed: 8, wireBytes: 100, virtualSec: 1.5, losses: []float64{1.25}}
	var chk checker
	checkRep(w, good, "rep", &chk)
	checkRepeat(w, good, good, "rep 1", &chk)
	if len(chk.failures) != 0 {
		t.Fatalf("good repetition failed checks: %v", chk.failures)
	}
	for name, mutate := range map[string]func(*repResult){
		"rank stopped early": func(r *repResult) { r.completed = 6 },
		"NaN loss":           func(r *repResult) { r.losses = []float64{math.NaN()} },
		"loss over ceiling":  func(r *repResult) { r.losses = []float64{4.5} },
		"wire bytes drift":   func(r *repResult) { r.wireBytes++ },
		"virtual time drift": func(r *repResult) { r.virtualSec = math.Nextafter(r.virtualSec, 2) },
		"loss bits drift":    func(r *repResult) { r.losses = []float64{math.Nextafter(1.25, 2)} },
	} {
		bad := good
		mutate(&bad)
		var chk checker
		checkRep(w, bad, "rep", &chk)
		checkRepeat(w, good, bad, "rep 1", &chk)
		if len(chk.failures) == 0 {
			t.Errorf("%s: no check failed", name)
		}
	}
}
