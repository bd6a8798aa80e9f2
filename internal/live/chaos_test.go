package live

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
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
	requireSimIters(t, simRun(t, cfg), res)
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
// its gradient waits at the PS for its own round on both runtimes. Both
// meshes run it.
func TestLiveBSPChaosBitIdenticalToSim(t *testing.T) {
	longRestart := &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 4, Worker: 1, Restart: 1.2},
	}}
	for _, tc := range []struct {
		name   string
		iters  int
		faults *fault.Schedule
		run    func(core.Config, ...Option) (*Result, error)
	}{
		{"two-restarts", 10, chaosSchedule(), RunLoopback},
		{"long-restart", 12, longRestart, RunLoopback},
		{"chan-two-restarts", 10, chaosSchedule(), RunChan},
		{"chan-long-restart", 12, longRestart, RunChan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(core.BSP, 4, tc.iters, 42)
			cfg.Elastic = true
			cfg.Faults = tc.faults
			sim := simParams(t, cfg)

			res, err := tc.run(cfg, WithCheckpoints(t.TempDir(), 1))
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
// (momentum restored from the checkpoint). Each rank runs the simulator's
// rank's iterations: a restarted one sums its incarnations', a written-off
// one gets its schedule's. Both meshes run it.
func TestLiveARSGDElasticBitIdenticalToSim(t *testing.T) {
	for _, tc := range []struct {
		name    string
		restart float64
		run     func(core.Config, ...Option) (*Result, error)
	}{
		{"restart", 0.1, RunLoopback},
		{"no-restart", 0, RunLoopback},
		{"chan-restart", 0.1, RunChan},
		{"chan-no-restart", 0, RunChan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(core.ARSGD, 4, 8, 42)
			cfg.Elastic = true
			cfg.Faults = &fault.Schedule{Events: []fault.Event{
				{Kind: fault.Crash, AtIter: 4, Worker: 1, Restart: tc.restart},
			}}
			sim := simRun(t, cfg)

			res, err := tc.run(cfg, WithCheckpoints(t.TempDir(), 1))
			if err != nil {
				t.Fatal(err)
			}
			comebacks := int64(1)
			if tc.restart == 0 {
				// The written-off rank reports no parameters.
				comebacks, sim.WorkerParams[1] = 0, nil
			}
			requireBitIdentical(t, sim.WorkerParams, res.WorkerParams)
			requireSimIters(t, sim, res)
			if res.Deaths != 1 || res.Rejoins != comebacks || res.Restores != comebacks {
				t.Fatalf("chaos counters: deaths=%d rejoins=%d restores=%d",
					res.Deaths, res.Rejoins, res.Restores)
			}
		})
	}
}

// requireSimIters fails unless every rank of the live run ran the
// iterations the simulator's ran.
func requireSimIters(t *testing.T, sim *core.Result, live *Result) {
	t.Helper()
	want := make([]int, len(sim.Metrics.Workers))
	for r, w := range sim.Metrics.Workers {
		want[r] = w.Iters
	}
	if !slices.Equal(live.WorkerIters, want) {
		t.Fatalf("per-rank iterations: live %v, sim %v", live.WorkerIters, want)
	}
}

// TestLivePartitionStallsAndRecovers projects a partition window onto the
// live transport: sends crossing the machine cut stall until the window
// closes, so the run slows but loses nothing — final parameters stay
// bit-identical to a clean simulator run, on both meshes.
func TestLivePartitionStallsAndRecovers(t *testing.T) {
	clean := liveConfig(core.ARSGD, 8, 4, 42)
	sim := simParams(t, clean)

	cfg := liveConfig(core.ARSGD, 8, 4, 42)
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Partition, At: 0, Duration: 0.15, Machines: []int{1}},
	}}
	for name, run := range map[string]func(core.Config, ...Option) (*Result, error){"loopback": RunLoopback, "chan": RunChan} {
		res, err := run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Net.Partitioned == 0 {
			t.Fatalf("%s: partition window stalled no sends: %+v", name, res.Net)
		}
		requireBitIdentical(t, sim, res.WorkerParams)
	}
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

// TestRunChanInjectsFaults: the pipe mesh is TCP's transport, so every
// kind of fault schedule runs on it and shows in the run's counters: a
// crash as a death and a rejoin, connection kills, a partition's stalled
// sends, a degraded wire as delay on the frames between the two machines
// (none on one machine), and a straggler as a stretch of its own passes —
// one "slow" span a pass on rank 1's track and no other — and no send
// delay.
func TestRunChanInjectsFaults(t *testing.T) {
	for _, tc := range []struct {
		spec     string
		machines int
		ok       func(*Result, map[int]int) bool
	}{
		{"crash@iter3:w1:restart=0.1", 2, func(r *Result, _ map[int]int) bool { return r.Deaths == 1 && r.Rejoins == 1 }},
		{"slow@0:w1:x3", 2, func(r *Result, slow map[int]int) bool {
			return r.Net.FramesSent > 0 && r.Net.DelayNanos == 0 && maps.Equal(slow, map[int]int{1: 4})
		}},
		{"degrade@0:x3", 2, func(r *Result, _ map[int]int) bool { return r.Net.DelayNanos > 0 }},
		{"degrade@0:x3", 1, func(r *Result, _ map[int]int) bool { return r.Net.FramesSent > 0 && r.Net.DelayNanos == 0 }},
		{"drop@0:p=0.5:for=1", 2, func(r *Result, _ map[int]int) bool { return r.Net.Kills > 0 }},
		{"partition@0:m1:for=0.15", 2, func(r *Result, _ map[int]int) bool { return r.Net.Partitioned > 0 }},
	} {
		cfg := liveConfig(core.ARSGD, 4, 4, 1)
		cfg.Cluster.Machines, cfg.Cluster.WorkersPerMachine = tc.machines, 4/tc.machines
		cfg.Elastic = true
		var err error
		if cfg.Faults, err = fault.ParseSpec(tc.spec); err != nil {
			t.Fatal(err)
		}
		tr := trace.New()
		res, err := RunChan(cfg, WithTracer(tr))
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if slow := slowSpans(t, tr); !tc.ok(res, slow) {
			t.Errorf("%s on %d machines: counters %+v, deaths %d, rejoins %d, slow spans by rank %v",
				tc.spec, tc.machines, res.Net, res.Deaths, res.Rejoins, slow)
		}
	}
}

// slowSpans counts the straggler spans on each rank's track.
func slowSpans(t *testing.T, tr *trace.Tracer) map[int]int {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var evs []trace.Event
	if err := json.Unmarshal(buf.Bytes(), &evs); err != nil {
		t.Fatal(err)
	}
	out := map[int]int{}
	for _, e := range evs {
		if e.Name == "slow" && e.Cat == "fault" {
			out[e.Tid]++
		}
	}
	return out
}

// TestTranslateFaults covers the schedule→rank projection directly: on two
// machines of four workers, ranks 0-3 and the PS rank (8) sit on machine 0
// and ranks 4-7 on machine 1, and every link between the two answers the
// schedule's windows — a partition of machine 1 over [0.5, 1.5), certain
// drops over [1, 3), a ×2 degrade of machine 1 over [3, 4) — while links
// within a machine never fault. A slowed worker stretches its passes and
// touches no link; a crash-only schedule touches no link at all.
func TestTranslateFaults(t *testing.T) {
	cfg := liveConfig(core.BSP, 8, 1, 7)
	if cfg.Cluster.Machines != 2 {
		t.Fatalf("cluster of %d machines, want 2", cfg.Cluster.Machines)
	}
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Drop, At: 1, Duration: 2, Prob: 1, Machine: -1},
		{Kind: fault.Slow, At: 0, Duration: 0, Factor: 3, Worker: 0},
		{Kind: fault.Partition, At: 0.5, Duration: 1, Machines: []int{1}},
		{Kind: fault.Degrade, At: 3, Duration: 1, Factor: 2, Machine: 1},
	}}
	f := newRankFaults(&cfg, 0, time.Time{})
	machine := func(r int) int {
		if r >= 4 && r < 8 {
			return 1
		}
		return 0
	}
	in := func(t, from, to float64) bool { return t >= from && t < to }
	for _, at := range []float64{0.2, 1, 2, 3.5, 5} {
		for r := 0; r <= 8; r++ {
			for s := 0; s <= 8; s++ {
				if r == s {
					continue
				}
				cross := machine(r) != machine(s)
				if got, want := f.Partitioned(at, r, s), cross && in(at, 0.5, 1.5); got != want {
					t.Errorf("Partitioned(%v, %d, %d) = %v, want %v", at, r, s, got, want)
				}
				if got, want := f.Cut(at, r, s), cross && (in(at, 0.5, 1.5) || in(at, 1, 3)); got != want {
					t.Errorf("Cut(%v, %d, %d) = %v, want %v", at, r, s, got, want)
				}
				want := 1.0
				if cross && in(at, 3, 4) {
					want = 2
				}
				if got := f.Slow(at, r, s); got != want {
					t.Errorf("Slow(%v, %d, %d) = %v, want %v", at, r, s, got, want)
				}
			}
		}
	}
	if got := f.inj.ComputeMult(0, 1); got != 3 {
		t.Errorf("worker 0's compute multiplier %v, want 3", got)
	}
	if got := f.inj.ComputeMult(1, 1); got != 1 {
		t.Errorf("worker 1's compute multiplier %v, want 1", got)
	}

	cfg.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, AtIter: 1, Worker: 0}}}
	f = newRankFaults(&cfg, 0, time.Time{})
	for r := 0; r <= 8; r++ {
		for s := 0; s <= 8; s++ {
			if f.Partitioned(1, r, s) || f.Cut(1, r, s) || f.Slow(1, r, s) != 1 {
				t.Fatalf("crash-only schedule faults the link %d->%d", r, s)
			}
		}
	}

	cfg.Faults = nil
	if f := newRankFaults(&cfg, 0, time.Time{}); f != nil {
		t.Fatalf("no schedule gave rank faults %+v", f)
	}
}

// TestMeshFaultsFollowInjector: a rank's mesh sends fault exactly where the
// simulator's injector faults the machines they run between, on both
// meshes. The run has three machines of one worker each and the PS rank on
// machine 0, with rank 0; one frame crosses every (from, to) pair, and the
// sender's counters show whether the fault touched it — a partition of
// machine 0, the PS inside the cut, as a stalled send; a certain drop on
// machine 0's links as a kill; a degrade of them as delay. The pair on one
// machine (rank 0 and the PS) and the link between machines 1 and 2 stay
// clean; a slowdown touches no send.
func TestMeshFaultsFollowInjector(t *testing.T) {
	cfg := liveConfig(core.BSP, 3, 1, 3)
	cfg.Cluster.Machines, cfg.Cluster.WorkersPerMachine = 3, 1
	machine := []int{0, 1, 2, 0} // ranks 0-2 are the workers, 3 the PS
	n := meshSize(&cfg)
	meshes := map[string]func() []*xport.TCPNet{
		"tcp": func() []*xport.TCPNet {
			eps, addrs := make([]*xport.TCPNet, n), make([]string, n)
			for i := range eps {
				ep, err := xport.ListenTCP(i, n, "127.0.0.1:0")
				if err != nil {
					t.Fatal(err)
				}
				eps[i], addrs[i] = ep, ep.Addr()
				t.Cleanup(func() { ep.Close() })
			}
			for _, ep := range eps {
				ep.SetPeers(addrs)
			}
			return eps
		},
		"chan": func() []*xport.TCPNet {
			cn, eps := xport.NewChanNet(n), make([]*xport.TCPNet, n)
			for i := range eps {
				eps[i] = cn.Endpoint(i).(*xport.TCPNet)
				t.Cleanup(func() { eps[i].Close() })
			}
			return eps
		},
	}
	for _, tc := range []struct {
		spec  string
		want  func(in *fault.Injector, m, k int) bool
		shows func(before, after xport.Stats) bool
	}{
		{"partition@0:m0:for=0.05",
			func(in *fault.Injector, m, k int) bool { return in.Partitioned(0, m, k) },
			func(b, a xport.Stats) bool { return a.Partitioned > b.Partitioned }},
		{"drop@0:m0:p=1",
			func(in *fault.Injector, m, k int) bool { return in.Cut(0, m, k) },
			func(b, a xport.Stats) bool { return a.Kills > b.Kills }},
		{"degrade@0:m0:x3",
			func(in *fault.Injector, m, k int) bool { return m != k && in.Slow(0, m, k) > 1 },
			func(b, a xport.Stats) bool { return a.DelayNanos > b.DelayNanos }},
		{"slow@0:w1:x3",
			func(*fault.Injector, int, int) bool { return false },
			func(b, a xport.Stats) bool {
				return a.Partitioned != b.Partitioned || a.Kills != b.Kills || a.DelayNanos != b.DelayNanos
			}},
	} {
		sched, err := fault.ParseSpec(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Faults = sched
		in := fault.NewInjector(sched, cfg.Workers, cfg.Cluster.Machines, 1, 0)
		for name, mesh := range meshes {
			eps := mesh()
			// Every pair first carries a frame without faults, so that a
			// kill finds a connection to kill.
			for from := range eps {
				for to := range eps {
					if from != to {
						sendOne(t, eps, from, to)
					}
				}
			}
			var got, want [][2]int
			for from := range eps {
				for to := range eps {
					if from == to {
						continue
					}
					if tc.want(in, machine[from], machine[to]) {
						want = append(want, [2]int{from, to})
					}
					before := eps[from].Stats()
					now := time.Now()
					eps[from].SetFaults(newRankFaults(&cfg, from, now), now)
					sendOne(t, eps, from, to)
					eps[from].SetFaults(nil, now)
					if tc.shows(before, eps[from].Stats()) {
						got = append(got, [2]int{from, to})
					}
				}
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s on %s: faulted pairs %v, the injector's %v", tc.spec, name, got, want)
			}
		}
	}
}

// sendOne sends a frame from rank from to rank to and receives it there.
func sendOne(t *testing.T, eps []*xport.TCPNet, from, to int) {
	t.Helper()
	if err := eps[from].Send(to, &xport.Frame{Kind: 1, From: int32(from)}); err != nil {
		t.Fatalf("send %d->%d: %v", from, to, err)
	}
	if f, err := eps[to].Recv(5 * time.Second); err != nil || f.From != int32(from) {
		t.Fatalf("recv %d->%d: %+v, %v", from, to, f, err)
	}
}

// resumeConfig is an elastic run whose rank 1 is dead through iterations
// 3-6 and back at 7, and whose rank 2 is dead at 5 and back at 6.
func resumeConfig(t *testing.T, algo core.Algo) core.Config {
	cfg := liveConfig(algo, 4, 12, 42)
	cfg.Elastic = true
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 3, Worker: 1, Restart: 1.2},
		{Kind: fault.Crash, AtIter: 5, Worker: 2, Restart: 0.1},
	}}
	if err := Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	for w, want := range []string{"xxxxxxxxxxxx", "xx....xxxxxx", "xxxx.xxxxxxx", "xxxxxxxxxxxx"} {
		got := ""
		for it := 1; it <= cfg.Iters; it++ {
			got += map[bool]string{true: "x", false: "."}[newChaos(&cfg).inj.AliveAtIter(w, it)]
		}
		if got != want {
			t.Fatalf("rank %d runs %s, want %s", w, got, want)
		}
	}
	return cfg
}

// TestChaosOwesResume: a rank back from a dead window owes a RESUME to each
// rank whose incarnation at the resume round also ran the returning rank's
// last round before the window — and to no other.
func TestChaosOwesResume(t *testing.T) {
	ch := newChaos(ptr(resumeConfig(t, core.ARSGD)))
	for _, tc := range []struct {
		p, q, it int
		want     bool
	}{
		{1, 0, 7, true},
		{1, 3, 7, true},
		{1, 2, 7, false}, // rank 2 died and came back since rank 1's round 2
		{2, 0, 6, true},
		{2, 1, 6, false}, // rank 1 is dead at 6
		{1, 0, 5, false}, // rank 1 is not back yet
		{1, 0, 8, false}, // nor newly back
		{0, 1, 7, false}, // rank 0 never dies
	} {
		if got := ch.owesResume(tc.p, tc.q, tc.it); got != tc.want {
			t.Errorf("owesResume(%d, %d, %d) = %v, want %v", tc.p, tc.q, tc.it, got, tc.want)
		}
	}
}

func ptr[T any](v T) *T { return &v }

// gateEndpoint is an endpoint whose arrivals are scripted; it logs what it
// is asked to do, in order.
type gateEndpoint struct {
	xport.Endpoint
	in  []xport.Frame
	log []string
}

func (e *gateEndpoint) Send(to int, f *xport.Frame) error {
	e.log = append(e.log, fmt.Sprintf("send %d to %d", f.Kind, to))
	return nil
}

func (e *gateEndpoint) Recv(time.Duration) (xport.Frame, error) {
	if len(e.in) == 0 {
		return xport.Frame{}, xport.ErrClosed
	}
	f := e.in[0]
	e.in = e.in[1:]
	e.log = append(e.log, fmt.Sprintf("recv %d from %d", f.Kind, f.From))
	return f, nil
}

func (e *gateEndpoint) DropPeer(p int) { e.log = append(e.log, fmt.Sprintf("drop %d", p)) }

// TestWorkerGateWaitsForResume: a worker whose peer comes back at round it
// drops its connection to that peer only once the new incarnation's RESUME
// is in, parking what arrives before it; the returning worker sends RESUME
// at its first round to the ranks that owe the wait — the PS alone when
// there is one.
func TestWorkerGateWaitsForResume(t *testing.T) {
	resume := func(from, it int) xport.Frame {
		return xport.Frame{Kind: kindResume, From: int32(from), Clock: int32(it), Seg: int32(from)}
	}
	chunk := xport.Frame{Kind: kindAllReduce, From: 3, Clock: 7}
	for _, tc := range []struct {
		name      string
		algo      core.Algo
		rank, it  int
		startIter int
		in        []xport.Frame
		want      []string
	}{
		{name: "a survivor parks a chunk, takes the RESUME, then drops the connection", algo: core.ARSGD,
			rank: 0, it: 7, in: []xport.Frame{chunk, resume(1, 7)},
			want: []string{"recv 8 from 3", "recv 111 from 1", "drop 1"}},
		{name: "a survivor waits for each peer back at its round", algo: core.ARSGD,
			rank: 3, it: 6, in: []xport.Frame{resume(2, 6)},
			want: []string{"recv 111 from 2", "drop 2"}},
		{name: "a rank back since the peer's last round waits for nothing", algo: core.ARSGD,
			rank: 2, it: 7},
		{name: "the returning rank sends RESUME to the ranks that wait", algo: core.ARSGD,
			rank: 1, it: 1, startIter: 7,
			want: []string{"send 111 to 0", "send 111 to 3"}},
		{name: "under a PS the returning rank sends RESUME to the PS alone", algo: core.BSP,
			rank: 1, it: 1, startIter: 7,
			want: []string{"send 111 to 4"}},
		{name: "under a PS a survivor waits for nothing", algo: core.BSP,
			rank: 0, it: 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := resumeConfig(t, tc.algo)
			ep := &gateEndpoint{in: tc.in}
			w := newWorker(&cfg, tc.rank, ep, buildOptions(&cfg, nil, 1))
			w.startIter = max(tc.startIter, 1)
			it, ok, err := w.Gate(tc.it)
			if want := max(tc.it, tc.startIter); it != want || !ok || err != nil {
				t.Fatalf("Gate(%d) = %d, %v, %v; want %d, true", tc.it, it, ok, err, want)
			}
			if !slices.Equal(ep.log, tc.want) {
				t.Fatalf("endpoint log %q, want %q", ep.log, tc.want)
			}
			if len(tc.in) > 1 {
				if m, ok, err := w.Recv(int(kindAllReduce), 7, core.Any, core.Poll); !ok || err != nil || m.From != 3 {
					t.Fatalf("the chunk that came before the RESUME was not parked: %+v, %v, %v", m, ok, err)
				}
			}
		})
	}
}
