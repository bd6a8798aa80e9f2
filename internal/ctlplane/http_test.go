package ctlplane

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"disttrain/internal/api"
)

// simSpec is a small deterministic simulator job.
func simSpec(seed uint64) api.ExperimentSpec {
	return api.ExperimentSpec{Algo: "bsp", Workers: 4, Iters: 12, Seed: seed}
}

// realSimSpec is a small real-mode simulator job: only real-mode runs
// record convergence samples, so this is the spec for streaming tests.
func realSimSpec(seed uint64) api.ExperimentSpec {
	return api.ExperimentSpec{
		Algo: "bsp", Workers: 2, Iters: 6, Seed: seed,
		Real: &api.RealSpec{Batch: 4, EvalEvery: 1, EvalMax: 50},
	}
}

// chanSpec is a small live in-process job (real gradient math required by
// the wall-clock backends).
func chanSpec(seed uint64) api.ExperimentSpec {
	return api.ExperimentSpec{
		Algo: "bsp", Workers: 2, Iters: 4, Seed: seed,
		Transport: api.TransportChan,
		Real:      &api.RealSpec{Batch: 4},
	}
}

// startService builds, starts, and tears down a Service plus an httptest
// front end, returning a client pointed at it.
func startService(t *testing.T, o ServiceOptions) (*api.Client, *Service) {
	t.Helper()
	svc, err := NewService(o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	svc.Start(ctx)
	ts := httptest.NewServer(NewMux(svc))
	t.Cleanup(func() {
		ts.Close()
		cancel()
		<-svc.Done()
	})
	return &api.Client{Base: ts.URL}, svc
}

// TestSubmitPollStreamResult walks the happy path over real HTTP: submit a
// sim job, watch its SSE metric stream to completion, poll to the terminal
// state, and fetch the result.
func TestSubmitPollStreamResult(t *testing.T) {
	c, _ := startService(t, ServiceOptions{})
	ctx := context.Background()

	st, err := c.Submit(ctx, realSimSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != api.StateQueued {
		t.Fatalf("submit status: %+v", st)
	}
	if st.SubmittedAt.IsZero() {
		t.Fatal("submit did not stamp SubmittedAt")
	}

	var pts []api.MetricPoint
	if err := c.StreamMetrics(ctx, st.ID, func(p api.MetricPoint) {
		pts = append(pts, p)
	}); err != nil {
		t.Fatalf("stream: %v", err)
	}
	if len(pts) == 0 {
		t.Fatal("SSE stream delivered no metric points")
	}
	for _, p := range pts {
		if p.Worker != -1 {
			t.Fatalf("sim metrics must be global samples, got worker %d", p.Worker)
		}
	}

	fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.StateDone {
		t.Fatalf("state %q (error %q), want done", fin.State, fin.Error)
	}
	if fin.StartedAt.IsZero() || fin.FinishedAt.IsZero() {
		t.Fatalf("missing lifecycle timestamps: %+v", fin)
	}

	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport != api.TransportSim || res.Summary.Iters != 6 {
		t.Fatalf("result: transport=%q iters=%d", res.Transport, res.Summary.Iters)
	}
}

// TestListByState lists experiments over HTTP, all of them and by state:
// two submissions queued before the worker pool starts, then done.
func TestListByState(t *testing.T) {
	svc, err := NewService(ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMux(svc))
	defer ts.Close()
	c, ctx := &api.Client{Base: ts.URL}, context.Background()
	var ids []string
	for seed := uint64(1); seed <= 2; seed++ {
		st, err := c.Submit(ctx, simSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	list := func(state string) []string {
		t.Helper()
		sts, err := c.List(ctx, state)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, st := range sts {
			got = append(got, st.ID)
		}
		return got
	}
	same := func(a, b []string) bool { return strings.Join(a, ",") == strings.Join(b, ",") }
	if all, queued, done := list(""), list(api.StateQueued), list(api.StateDone); !same(all, ids) || !same(queued, ids) || len(done) != 0 {
		t.Fatalf("before Start: all %v, queued %v, done %v; want %v queued", all, queued, done, ids)
	}

	runCtx, cancel := context.WithCancel(ctx)
	svc.Start(runCtx)
	defer func() {
		cancel()
		<-svc.Done()
	}()
	for _, id := range ids {
		if _, err := c.Wait(ctx, id, 10*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	if all, queued, done := list(""), list(api.StateQueued), list(api.StateDone); !same(all, ids) || len(queued) != 0 || !same(done, ids) {
		t.Fatalf("after the runs: all %v, queued %v, done %v; want %v done", all, queued, done, ids)
	}
}

// TestMalformedSpec400 exercises the decode-failure path.
func TestMalformedSpec400(t *testing.T) {
	c, _ := startService(t, ServiceOptions{})
	resp, err := http.Post(c.Base+"/v1/experiments", "application/json",
		strings.NewReader(`{"algo": `))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: got %d, want 400", resp.StatusCode)
	}
}

// TestInvalidSpec400 exercises submission-time validation: the spec parses
// but names no algorithm.
func TestInvalidSpec400(t *testing.T) {
	c, _ := startService(t, ServiceOptions{})
	if _, err := c.Submit(context.Background(), api.ExperimentSpec{Workers: 4}); err == nil {
		t.Fatal("spec without algo accepted")
	}
	resp, err := http.Post(c.Base+"/v1/experiments", "application/json",
		strings.NewReader(`{"workers": 4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid spec: got %d, want 400", resp.StatusCode)
	}
}

// TestMisfitNetDataset400: a net whose input shape the dataset cannot feed
// used to pass submission and panic inside the first forward pass, taking
// the server process with it. It must be refused at the door, and the
// service must still take work afterwards.
func TestMisfitNetDataset400(t *testing.T) {
	c, _ := startService(t, ServiceOptions{})
	resp, err := http.Post(c.Base+"/v1/experiments", "application/json",
		strings.NewReader(`{"algo":"bsp","workers":2,"iters":2,"real":{"net":"minicnn","dataset":"gauss"}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("minicnn on gauss: got %d, want 400", resp.StatusCode)
	}
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	for _, want := range []string{"minicnn", "gauss", "shapes16"} {
		if !strings.Contains(body.String(), want) {
			t.Errorf("rejection %q does not name %q", body.String(), want)
		}
	}
	if _, err := c.Submit(context.Background(), simSpec(1)); err != nil {
		t.Fatalf("service refused a good spec after the bad one: %v", err)
	}
}

// TestChanFaults202: a chan spec with a fault schedule is accepted, and its
// run applies the schedule: the degraded wire's delay between the cluster's
// two machines is in the result.
func TestChanFaults202(t *testing.T) {
	c, _ := startService(t, ServiceOptions{})
	resp, err := http.Post(c.Base+"/v1/experiments", "application/json",
		strings.NewReader(`{"algo":"bsp","workers":8,"iters":2,"transport":"chan","real":{},"fault_spec":"slow@0:w1:x3;degrade@0:x3"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st api.ExperimentStatus
	if resp.StatusCode != http.StatusAccepted || json.NewDecoder(resp.Body).Decode(&st) != nil {
		t.Fatalf("chan spec with faults: got %d, want 202", resp.StatusCode)
	}
	ctx := context.Background()
	if fin, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil || fin.State != api.StateDone {
		t.Fatalf("chan run with faults: %+v, %v", fin, err)
	}
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Transport != api.TransportChan || res.Net == nil || res.Net.DelayNanos <= 0 {
		t.Fatalf("chan run with a degraded wire: transport %q, counters %+v", res.Transport, res.Net)
	}
}

// TestUnknownExperiment404 covers the three per-experiment endpoints.
func TestUnknownExperiment404(t *testing.T) {
	c, _ := startService(t, ServiceOptions{})
	for _, path := range []string{
		"/v1/experiments/exp-999999",
		"/v1/experiments/exp-999999/result",
		"/v1/experiments/exp-999999/metrics",
	} {
		resp, err := http.Get(c.Base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: got %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestResultBeforeDone409 asks for a result while the experiment is still
// queued (the service has no workers to run it: Start was never called).
func TestResultBeforeDone409(t *testing.T) {
	svc, err := NewService(ServiceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMux(svc))
	defer ts.Close()
	c := &api.Client{Base: ts.URL}
	st, err := c.Submit(context.Background(), simSpec(1))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/experiments/" + st.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("result of queued experiment: got %d, want 409", resp.StatusCode)
	}
}

// TestQueueFull503 fills a depth-1 queue on an unstarted service and
// verifies the next submission is rejected as retryable.
func TestQueueFull503(t *testing.T) {
	svc, err := NewService(ServiceOptions{QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewMux(svc))
	defer ts.Close()
	c := &api.Client{Base: ts.URL}
	if _, err := c.Submit(context.Background(), simSpec(1)); err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(simSpec(2))
	resp, err := http.Post(ts.URL+"/v1/experiments", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow submission: got %d, want 503", resp.StatusCode)
	}
}

// TestDeterminismOverHTTP enforces the byte-identity contract: a simulator
// job submitted through the HTTP control plane must export the exact bytes a
// direct in-process run of the same spec exports.
func TestDeterminismOverHTTP(t *testing.T) {
	spec := simSpec(42)

	direct, err := api.Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := direct.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	c, _ := startService(t, ServiceOptions{})
	ctx := context.Background()
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, err := c.ResultJSON(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("HTTP result diverged from direct run:\nhttp:   %s\ndirect: %s", got, want.Bytes())
	}
}

// TestConcurrentMixedSubmissions pushes four jobs across both backends at
// once and requires all of them to finish.
func TestConcurrentMixedSubmissions(t *testing.T) {
	c, _ := startService(t, ServiceOptions{Concurrency: 4})
	ctx := context.Background()
	specs := []api.ExperimentSpec{simSpec(1), chanSpec(2), simSpec(3), chanSpec(4)}

	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.Submit(ctx, spec)
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			ids[i] = st.ID
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, id := range ids {
		st, err := c.Wait(ctx, id, 10*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if st.State != api.StateDone {
			t.Fatalf("experiment %s (spec %d): state %q, error %q", id, i, st.State, st.Error)
		}
		if specs[i].Transport == api.TransportChan && st.Result.Transport != "chan" {
			t.Fatalf("experiment %s ran on %q, want chan", id, st.Result.Transport)
		}
	}
}

// TestRestartPersistence runs a job to completion, tears the whole service
// down, and brings a fresh incarnation up over the same state directory: the
// result must still be served, byte-identical.
func TestRestartPersistence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	svc1, err := NewService(ServiceOptions{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	runCtx, cancel := context.WithCancel(ctx)
	svc1.Start(runCtx)
	ts1 := httptest.NewServer(NewMux(svc1))
	c1 := &api.Client{Base: ts1.URL}
	st, err := c1.Submit(ctx, simSpec(9))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c1.Wait(ctx, st.ID, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	want, err := c1.ResultJSON(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	cancel()
	<-svc1.Done()

	c2, _ := startService(t, ServiceOptions{StateDir: dir})
	got2, err := c2.Get(ctx, st.ID)
	if err != nil {
		t.Fatalf("restarted service lost experiment %s: %v", st.ID, err)
	}
	if got2.State != api.StateDone {
		t.Fatalf("restarted state %q, want done", got2.State)
	}
	gotJSON, err := c2.ResultJSON(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotJSON, want) {
		t.Fatalf("result changed across restart:\nbefore: %s\nafter:  %s", want, gotJSON)
	}
}

// TestRestartResumesQueued verifies an experiment interrupted before it ran
// is re-enqueued and completed by the next incarnation.
func TestRestartResumesQueued(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	// First incarnation: never started, so the submission stays queued on
	// disk — the same artifact an interrupted-mid-shutdown run leaves.
	svc1, err := NewService(ServiceOptions{StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st, err := svc1.Submit(simSpec(5))
	if err != nil {
		t.Fatal(err)
	}

	c2, _ := startService(t, ServiceOptions{StateDir: dir})
	fin, err := c2.Wait(ctx, st.ID, 10*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != api.StateDone {
		t.Fatalf("resumed experiment state %q (error %q), want done", fin.State, fin.Error)
	}
}
