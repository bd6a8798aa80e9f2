package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/costmodel"
	"disttrain/internal/fault"
	"disttrain/internal/grad"
	"disttrain/internal/metrics"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
)

// fakeEnv is a scripted Env: no engine, no sockets. It logs every call as
// "method arg", fails the failAt-th call of method fail with errBoom, and
// otherwise answers from the hooks a test sets (nil hooks do nothing).
//
// Its wire is a script too. arrived holds what has reached the worker, in
// arrival order, until Recv takes it: each wait runs through a Mailbox whose
// take pops arrived, and what it parked goes back to the front. ps answers
// each parameter-server request — a Send of a ps kind, to shard to−Workers —
// and peer each other Send with the messages that then arrive. A wait that
// nothing arrived matches is answered by the world the loops assume: a Block
// or Bounded wait for any kind takes the parameter server's reply to the last
// request, one for a given kind takes that kind from the peer sent to longest
// ago and not yet heard from, or a gather's leader from the member the seg
// names. A Serve wait with nothing left sees the run torn down.
type fakeEnv struct {
	log    []string
	calls  map[string]int
	fail   string
	failAt int

	gate      func(it int) (int, bool)
	reachable func(base []int) []int // nil = base
	onCompute func()
	onDone    func(it int)

	arrived []Msg
	ps      func(to int, m Msg) []Msg
	peer    func(to int, m Msg) []Msg
	onRecv  func(m Msg) // sees every message Recv hands out

	lastPS ps.Kind
	owed   []int // peers sent to and not yet heard from
	l      *Ledger
}

var errBoom = errors.New("boom")

// costRep is a math-free replica whose parameter server is one shard with no
// ranges: the loops' protocol is under test, not their math.
func costRep() *Replica {
	r := newCostReplica()
	r.shards = ps.Assignment{nil}
	return r
}

func (f *fakeEnv) call(method string, arg any) error {
	f.log = append(f.log, fmt.Sprint(method, " ", arg))
	if f.calls == nil {
		f.calls = map[string]int{}
	}
	f.calls[method]++
	if method == f.fail && f.calls[method] == f.failAt {
		return errBoom
	}
	return nil
}

func (f *fakeEnv) Gate(it int) (int, bool, error) {
	if err := f.call("Gate", it); err != nil {
		return it, false, err
	}
	if f.gate != nil {
		next, ok := f.gate(it)
		return next, ok, nil
	}
	return it, true, nil
}

func (f *fakeEnv) Members(it int) ([]int, int) {
	f.call("Members", it)
	return []int{0, 1, 2}, 1
}

func (f *fakeEnv) Compute(overlap bool) {
	f.call("Compute", overlap)
	if f.onCompute != nil {
		f.onCompute()
	}
}

func (f *fakeEnv) Grad() []float32 { f.call("Grad", ""); return nil }

func (f *fakeEnv) Ready(lo, hi int) { f.call("Ready", fmt.Sprint(lo, "-", hi)) }

func (f *fakeEnv) Reachable(base []int) []int {
	f.call("Reachable", base)
	if f.reachable != nil {
		return f.reachable(base)
	}
	return base
}

// Go runs body as a coroutine of the calling thread: body runs until it asks
// for its first token, each hand runs it on until it asks for the next, and
// stop ends the stream and returns body's error — so a scripted run stays
// one sequence of calls.
func (f *fakeEnv) Go(name string, body func(Env, func() (int, bool)) error) (func(int), func() error) {
	f.call("Go", name)
	tokens := make(chan int)
	parked := make(chan bool) // body asks for a token (true) or has returned (false)
	var err error
	go func() {
		err = body(f, func() (int, bool) {
			parked <- true
			it, ok := <-tokens
			return it, ok
		})
		parked <- false
	}()
	running := <-parked
	hand := func(it int) {
		if running {
			tokens <- it
			running = <-parked
		}
	}
	stop := func() error {
		if running {
			close(tokens)
			running = <-parked
		}
		return err
	}
	return hand, stop
}

// kc renders a receive's kind and clock, Any as "*".
func kc(kind, clock int) string {
	s := func(v int) string {
		if v == Any {
			return "*"
		}
		return fmt.Sprint(v)
	}
	return s(kind) + "@" + s(clock)
}

// kcs is kc with the seg a collective's receive waits for: "kind@clock/seg".
func kcs(kind, clock, seg int) string {
	if seg == Any {
		return kc(kind, clock)
	}
	return fmt.Sprint(kc(kind, clock), "/", seg)
}

var waitNames = map[Wait]string{Poll: "poll", Block: "block", Bounded: "bounded", Serve: "serve"}

func (f *fakeEnv) Send(to int, m *Msg) (float64, error) {
	if err := f.call("Send", fmt.Sprint(to, " ", kc(m.Kind, m.Clock))); err != nil {
		return 0, err
	}
	if m.Kind < KindAllReduce {
		f.lastPS = ps.Kind(m.Kind)
		if f.ps != nil {
			f.arrived = append(f.arrived, f.ps(to, *m)...)
		}
		return 0, nil
	}
	f.owed = append(f.owed, to)
	if f.peer != nil {
		f.arrived = append(f.arrived, f.peer(to, *m)...)
	}
	return 0, nil
}

func (f *fakeEnv) Recv(kind, clock, seg int, wait Wait) (*Msg, bool, error) {
	if err := f.call("Recv", kcs(kind, clock, seg)+" "+waitNames[wait]); err != nil {
		return nil, false, err
	}
	var mb Mailbox
	m, ok, err := mb.Recv(kind, clock, seg, func() (*Msg, bool, error) {
		if len(f.arrived) > 0 {
			m := f.arrived[0]
			f.arrived = f.arrived[1:]
			return &m, true, nil
		}
		m, ok, err := f.world(kind, clock, seg, wait)
		return &m, ok, err
	})
	var parked []Msg
	for _, p := range mb.parked {
		parked = append(parked, *p)
	}
	f.arrived = append(parked, f.arrived...)
	if !ok {
		return nil, false, err
	}
	f.took(m)
	return m, true, err
}

// world answers a wait that nothing arrived matches.
func (f *fakeEnv) world(kind, clock, seg int, wait Wait) (Msg, bool, error) {
	switch {
	case wait == Poll || wait == Serve:
		return Msg{}, false, nil
	case kind == Any:
		reply := kindParams
		if f.lastPS == ps.Push {
			reply = kindEASGDReply
		}
		return Msg{Kind: reply}, true, nil
	case len(f.owed) > 0:
		return Msg{Kind: kind, From: f.owed[0], Clock: max(clock, 0), Seg: max(seg, 0)}, true, nil
	case kind == KindLocalGather:
		return Msg{Kind: kind, From: seg, Clock: clock, Seg: seg}, true, nil
	}
	return Msg{}, false, fmt.Errorf("fake: %s wait for %s that nothing will send", waitNames[wait], kc(kind, clock))
}

// took hands m out of Recv: its sender is heard from.
func (f *fakeEnv) took(m *Msg) {
	for i, to := range f.owed {
		if to == m.From {
			f.owed = append(f.owed[:i], f.owed[i+1:]...)
			break
		}
	}
	if f.onRecv != nil {
		f.onRecv(*m)
	}
}

func (f *fakeEnv) Release([]float32) {}

func (f *fakeEnv) Ledger() *Ledger {
	if f.l == nil {
		f.l = NewLedger(new(metrics.Breakdown), nil, func() float64 { return 0 }, 0, 0)
	}
	return f.l
}

func (f *fakeEnv) Done(it int) error {
	if err := f.call("Done", it); err != nil {
		return err
	}
	if f.onDone != nil {
		f.onDone(it)
	}
	return nil
}

// logged returns the arguments of every logged call of method, in order.
func (f *fakeEnv) logged(method string) []string {
	var out []string
	for _, l := range f.log {
		if arg, ok := strings.CutPrefix(l, method+" "); ok {
			out = append(out, arg)
		}
	}
	return out
}

// sent returns the logged sends to any peer of messages of the given kind,
// as "to@clock".
func (f *fakeEnv) sent(kind int) []string {
	var out []string
	for _, s := range f.logged("Send") {
		var to, k, clock int
		if n, _ := fmt.Sscanf(s, "%d %d@%d", &to, &k, &clock); n == 3 && k == kind {
			out = append(out, fmt.Sprint(to, "@", clock))
		}
	}
	return out
}

// requests returns the logged parameter-server requests, one per shard, as
// "kind@clock".
func (f *fakeEnv) requests() []string {
	var out []string
	for _, s := range f.logged("Send") {
		var to, k, clock int
		if n, _ := fmt.Sscanf(s, "%d %d@%d", &to, &k, &clock); n == 3 && k < KindAllReduce {
			out = append(out, fmt.Sprint(k, "@", clock))
		}
	}
	return out
}

// loopConfig is a validated cost-only config: the loops run on a math-free
// replica, so only their protocol is under test.
func loopConfig(t *testing.T, algo Algo, workers, iters int) *Config {
	t.Helper()
	cfg := &Config{
		Algo:      algo,
		Cluster:   cluster.Paper56G(workers),
		Workers:   workers,
		Workload:  costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128),
		Iters:     iters,
		Seed:      1,
		LR:        opt.Schedule{Base: 0.1},
		Staleness: 2,
		Tau:       4,
		GossipP:   0.7,
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	return cfg
}

func runLoop(e Env, cfg *Config, rank int) error {
	ws, ovs := DeriveStreams(cfg.Seed, cfg.Workers)
	return WorkerLoop(e, cfg, rank, costRep(), ws[rank], BuildOverlay(cfg, ovs))
}

// TestLoopSSPHoldsTheBound: whatever the clock service acks, an SSP worker
// ends no iteration more than s clocks past its last pull or past the slowest
// worker it has heard of without a pull in between, and it ships exactly one
// update per iteration.
func TestLoopSSPHoldsTheBound(t *testing.T) {
	cfg := loopConfig(t, SSP, 4, 40)
	s := cfg.Staleness
	r := rng.New(7)
	// The slowest worker crawls: the acked minimum trails by up to 6 clocks.
	it, heard, pulled := 0, 0, 0
	f := &fakeEnv{}
	f.ps = func(_ int, m Msg) []Msg {
		if m.Kind != kindGrad {
			return nil
		}
		it++
		min := max(it-r.Intn(7), 0)
		heard = max(heard, min)
		return []Msg{{Kind: kindAck, Clock: min}}
	}
	f.onDone = func(it int) {
		if sends := f.requests(); sends[len(sends)-1] == fmt.Sprint(ps.Pull, "@", it) {
			pulled, heard = it, max(heard, it-s)
		}
		if it-pulled > s || it-heard > s {
			t.Fatalf("iteration %d ended stale: last pull %d, slowest heard of %d, s = %d", it, pulled, heard, s)
		}
	}
	if err := runLoop(f, cfg, 0); err != nil {
		t.Fatal(err)
	}
	updates, pulls := 0, 0
	for _, s := range f.requests() {
		switch {
		case strings.HasPrefix(s, fmt.Sprint(ps.Grad, "@")):
			updates++
		case strings.HasPrefix(s, fmt.Sprint(ps.Pull, "@")):
			pulls++
		}
	}
	if updates != cfg.Iters {
		t.Fatalf("%d updates for %d iterations", updates, cfg.Iters)
	}
	if pulls == 0 || pulls == cfg.Iters {
		t.Fatalf("%d pulls in %d iterations: the script should force some, not all", pulls, cfg.Iters)
	}
}

// TestLoopEASGDPeriod: EASGD exchanges exactly on the multiples of τ, and
// AdaComm's period shrinks as the loss the replica reports falls.
func TestLoopEASGDPeriod(t *testing.T) {
	cfg := loopConfig(t, EASGD, 4, 17)
	f := &fakeEnv{}
	if err := runLoop(f, cfg, 0); err != nil {
		t.Fatal(err)
	}
	want := []string{"6@4", "6@8", "6@12", "6@16"}
	if got := f.requests(); !slices.Equal(got, want) {
		t.Fatalf("EASGD exchanged at %v, want %v (kind %d = ps.Push)", got, want, ps.Push)
	}

	cfg = loopConfig(t, AdaComm, 4, 40)
	cfg.Tau = 8
	rep := costRep()
	f = &fakeEnv{}
	passes := 0
	f.onCompute = func() {
		// The loss sits at 4 for 16 iterations, then at 1/16 of that:
		// τ = ⌈8·√(1/16)⌉ = 2.
		passes++
		rep.lossEWMA, rep.lossInit = 4, true
		if passes > 16 {
			rep.lossEWMA = 0.25
		}
	}
	if err := loopEASGD(f, cfg, rep); err != nil {
		t.Fatal(err)
	}
	want = []string{"6@8", "6@16", "6@18", "6@20", "6@22"}
	if got := f.requests(); !slices.Equal(got[:5], want) {
		t.Fatalf("AdaComm exchanged at %v, want it to start %v", got, want)
	}
}

// TestLoopGate: every loop runs the iteration its gate names — skipping the
// ones in between — and ends without error when the gate says the worker is
// done for good.
func TestLoopGate(t *testing.T) {
	for _, algo := range allAlgos {
		cfg := loopConfig(t, algo, 4, 12)
		f := &fakeEnv{gate: func(it int) (int, bool) {
			switch {
			case it == 3:
				return 7, true // dead for 3..6
			case it >= 10:
				return it, false
			}
			return it, true
		}}
		if err := runLoop(f, cfg, 0); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		want := []string{"1", "2", "7", "8", "9"}
		if got := f.logged("Done"); !slices.Equal(got, want) {
			t.Fatalf("%s completed iterations %v, want %v", algo, got, want)
		}
	}
}

// TestLoopErrorStopsTheLoop: an error from any Env method a loop calls — the
// wire's included, under the shared protocol — ends that loop at once and
// comes back unchanged.
func TestLoopErrorStopsTheLoop(t *testing.T) {
	methods := map[Algo][]string{
		BSP:     {"Gate", "Send", "Recv", "Done"},
		ASP:     {"Gate", "Send", "Recv", "Done"},
		SSP:     {"Gate", "Send", "Recv", "Done"},
		EASGD:   {"Gate", "Send", "Recv", "Done"},
		AdaComm: {"Gate", "Send", "Recv", "Done"},
		ARSGD:   {"Gate", "Send", "Recv", "Done"},
		GoSGD:   {"Gate", "Recv", "Send", "Done"},
		ADPSGD:  {"Gate", "Done"},
		DPSGD:   {"Gate", "Send", "Recv", "Done"},
		Hogwild: {"Gate", "Done"},
	}
	for algo, ms := range methods {
		for _, m := range ms {
			for _, rank := range []int{0, 1} { // rank 1 is a local-aggregation member
				workers := 8
				if algo == Hogwild {
					workers = 4 // one machine
				}
				cfg := loopConfig(t, algo, workers, 12)
				cfg.LocalAgg = algo == BSP
				f := &fakeEnv{fail: m, failAt: 2}
				err := runLoop(f, cfg, rank)
				if err != errBoom {
					t.Fatalf("%s rank %d: %s failed, loop returned %v", algo, rank, m, err)
				}
				if last := f.log[len(f.log)-1]; !strings.HasPrefix(last, m+" ") {
					t.Fatalf("%s rank %d: loop went on to %q after %s failed", algo, rank, last, m)
				}
			}
		}
	}
}

// allAlgos is every algorithm Config.Validate accepts.
var allAlgos = append(Algos(), DPSGD, AdaComm, Hogwild)

// TestWorkerLoopCoversEveryAlgo: WorkerLoop has a loop for every algorithm
// Config.Validate accepts, and every rank's runs each iteration to the end.
func TestWorkerLoopCoversEveryAlgo(t *testing.T) {
	if len(allAlgos) != 10 {
		t.Fatalf("%d algorithms, want ten", len(allAlgos))
	}
	for _, algo := range allAlgos {
		cfg := loopConfig(t, algo, 4, 5)
		for rank := 0; rank < cfg.Workers; rank++ {
			f := &fakeEnv{}
			if err := runLoop(f, cfg, rank); err != nil {
				t.Fatalf("%s rank %d: %v", algo, rank, err)
			}
			if got := f.logged("Done"); len(got) != cfg.Iters {
				t.Fatalf("%s rank %d completed %v", algo, rank, got)
			}
		}
	}
}

// TestLoopADPSGDExchanges pins AD-PSGD's two threads: an active hands one
// token per iteration, after its local step and before the iteration closes,
// and its thread does one exchange per token with a partner it may reach — an
// odd rank, or an odd overlay neighbour. A passive's thread answers and never
// initiates; under the no-bipartite ablation every thread answers what is
// waiting before each exchange of its own, with any other rank.
func TestLoopADPSGDExchanges(t *testing.T) {
	run := func(cfg *Config, rank int, f *fakeEnv) []string {
		t.Helper()
		if err := runLoop(f, cfg, rank); err != nil {
			t.Fatal(err)
		}
		return f.log
	}
	cfg := loopConfig(t, ADPSGD, 6, 3)
	f := &fakeEnv{reachable: func([]int) []int { return []int{3} }} // 1 and 5 are out of reach
	want := "Go comm,Gate 1,Compute false,Grad ,Reachable [1 3 5],Send 3 10@1,Recv 11@* block,Done 1," +
		"Gate 2,Compute false,Grad ,Reachable [1 3 5],Send 3 10@2,Recv 11@* block,Done 2," +
		"Gate 3,Compute false,Grad ,Reachable [1 3 5],Send 3 10@3,Recv 11@* block,Done 3"
	if got := strings.Join(run(cfg, 0, f), ","); got != want {
		t.Fatalf("active:\n got %s\nwant %s", got, want)
	}
	f = &fakeEnv{reachable: func([]int) []int { return nil }}
	if got := run(cfg, 2, f); len(f.sent(KindExchangeReq)) != 0 {
		t.Fatalf("an active with no partner in reach exchanged: %v", got)
	}
	// A failed exchange ends the thread; its error comes back from the loop.
	f = &fakeEnv{fail: "Send", failAt: 2}
	if err := runLoop(f, cfg, 0); err != errBoom || len(f.sent(KindExchangeReq)) != 2 {
		t.Fatalf("exchange 2 failed: loop returned %v after exchanges %v", err, f.sent(KindExchangeReq))
	}
	if got := strings.Join(run(cfg, 1, &fakeEnv{}), ","); !strings.HasPrefix(got, "Go passive,Recv *@* serve,Gate 1") ||
		strings.Contains(got, "Send") {
		t.Fatalf("passive: %s", got)
	}

	cfg.Overlay, cfg.OverlayDegree = "kregular", 2
	_, ovs := DeriveStreams(cfg.Seed, cfg.Workers)
	ov := BuildOverlay(cfg, ovs)
	for rank := 0; rank < cfg.Workers; rank += 2 {
		var odd []int
		for _, pe := range ov.Neighbors[rank] {
			if pe%2 == 1 {
				odd = append(odd, pe)
			}
		}
		if len(odd) == 0 {
			odd = []int{1, 3, 5} // no odd neighbour: every passive
		}
		f := &fakeEnv{}
		run(cfg, rank, f)
		for _, s := range f.sent(KindExchangeReq) {
			var peer, it int
			fmt.Sscanf(s, "%d@%d", &peer, &it)
			if !slices.Contains(odd, peer) {
				t.Fatalf("active %d exchanged with %d; overlay neighbours %v", rank, peer, ov.Neighbors[rank])
			}
		}
	}

	cfg = loopConfig(t, ADPSGD, 6, 3)
	cfg.ADPSGDNoBipartite = true
	log := strings.Join(run(cfg, 1, &fakeEnv{}), ",")
	if !strings.HasPrefix(log, "Go comm,") || strings.Count(log, "Recv *@* poll,Reachable [0 2 3 4 5],Send") != cfg.Iters {
		t.Fatalf("no-bipartite: %s", log)
	}
}

// TestLoopDPSGDOrder pins D-PSGD's round: the pass, the ring exchange with
// (left, right), the mix, the step on the pass's gradient. A lone worker has
// no ring.
func TestLoopDPSGDOrder(t *testing.T) {
	for workers, want := range map[int]string{
		4: "Gate 1,Compute false,Send 3 10@1,Send 1 10@1,Recv 10@1 block,Recv 10@1 block,Grad ,Done 1",
		2: "Gate 1,Compute false,Send 1 10@1,Send 1 10@1,Recv 10@1 block,Recv 10@1 block,Grad ,Done 1",
		1: "Gate 1,Compute false,Grad ,Done 1",
	} {
		f := &fakeEnv{}
		if err := runLoop(f, loopConfig(t, DPSGD, workers, 1), 0); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(f.log, ","); got != want {
			t.Fatalf("%d workers:\n got %s\nwant %s", workers, got, want)
		}
	}
}

// TestLoopGradPSLocalAggOrder pins local aggregation's order: a member hands
// its gradient to the leader and blocks for the relayed parameters without
// ever talking to the PS; the leader gathers, exchanges, relays.
func TestLoopGradPSLocalAggOrder(t *testing.T) {
	cfg := loopConfig(t, BSP, 5, 1)
	cfg.LocalAgg = true
	for rank, want := range map[int]string{
		0: "Gate 1,Compute false,Grad ,Recv 12@1/1 block,Recv 12@1/2 block,Recv 12@1/3 block," +
			"Send 5 1@1,Recv *@* block,Send 1 13@1,Send 2 13@1,Send 3 13@1,Done 1",
		2: "Gate 1,Compute false,Grad ,Send 0 12@1,Recv 13@1/0 block,Done 1",
		4: "Gate 1,Compute false,Grad ,Send 5 1@1,Recv *@* block,Done 1", // alone on its machine
	} {
		f := &fakeEnv{}
		if err := runLoop(f, cfg, rank); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(f.log, ","); got != want {
			t.Fatalf("rank %d:\n got %s\nwant %s", rank, got, want)
		}
	}
}

// TestLoopGoSGDWeights runs two scripted GoSGD workers turn by turn, each
// delivering into the other's wire. A worker pushes only to partners its Env
// calls reachable, every push ships exactly half the weight the worker then
// held, and weight mass — held plus in flight — is conserved.
func TestLoopGoSGDWeights(t *testing.T) {
	cfg := loopConfig(t, GoSGD, 3, 30)
	fakes := []*fakeEnv{{}, {}}
	held := []float64{1, 1} // each worker's weight, mirrored from what it is seen to do
	pushes := 0
	// A worker holds the turn from one gate to the next, and through its
	// final drain.
	turn := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	errs := make(chan error, 2)
	for w, f := range fakes {
		f.gate = func(it int) (int, bool) {
			if it > 1 {
				turn[1-w] <- struct{}{}
			}
			<-turn[w]
			return it, true
		}
		f.onRecv = func(m Msg) { held[w] += m.Aux }
		// Worker 2 exists but is never reachable: nobody may push to it.
		f.reachable = func([]int) []int { return []int{1 - w} }
		f.peer = func(to int, m Msg) []Msg {
			if to != 1-w {
				t.Errorf("worker %d pushed to unreachable worker %d", w, to)
			}
			if m.Aux != held[w]/2 {
				t.Errorf("worker %d holding %v pushed weight %v", w, held[w], m.Aux)
			}
			held[w] = m.Aux
			fakes[to].arrived = append(fakes[to].arrived, m)
			pushes++
			return nil
		}
		go func() {
			errs <- runLoop(f, cfg, w)
			turn[1-w] <- struct{}{}
		}()
	}
	turn[0] <- struct{}{}
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	<-turn[0] // worker 1 is through its final drain
	mass := held[0] + held[1]
	for _, f := range fakes {
		for _, m := range f.arrived {
			mass += m.Aux
		}
	}
	if pushes < 10 || mass != 2 {
		t.Fatalf("after %d pushes the weight mass is %v, want exactly 2", pushes, mass)
	}
}

// TestProtocolArrivalOrder runs the shared protocol over scripted arrival
// orders the runtimes cannot be made to produce on demand.
func TestProtocolArrivalOrder(t *testing.T) {
	req := func(from, clock int, v float32) Msg {
		return Msg{Kind: KindExchangeReq, From: from, Clock: clock, Vec: []float32{v}}
	}
	first := func(vs [][]float32) []float32 {
		var out []float32
		for _, v := range vs {
			out = append(out, v[0])
		}
		return out
	}

	t.Run("dpsgd two workers", func(t *testing.T) {
		// Both slots come from the one peer, in arrival order; its round-2
		// vector, which came first, waits for round 2.
		f := &fakeEnv{arrived: []Msg{req(1, 2, 20), req(1, 1, 10), req(1, 1, 11)}}
		pr := newProtocol(f, loopConfig(t, DPSGD, 2, 2), newCostReplica())
		got, err := pr.neighbors(1, []int{1, 1}, nil)
		if err != nil || !slices.Equal(first(got), []float32{10, 11}) {
			t.Fatalf("round 1 took %v, %v", got, err)
		}
		f.arrived = append(f.arrived, req(1, 2, 21))
		got, err = pr.neighbors(2, []int{1, 1}, nil)
		if err != nil || !slices.Equal(first(got), []float32{20, 21}) || len(f.arrived) != 0 {
			t.Fatalf("round 2 took %v, %v; left %v", got, err, f.arrived)
		}
	})

	t.Run("dpsgd fold order", func(t *testing.T) {
		// The right neighbour's vector arrives first; the mix still folds
		// self, left, right — float32 addition is not associative, so the
		// other order lands on other bits.
		rep := testReplica(t, 0)
		x := rep.Params()
		left, right := make([]float32, len(x)), make([]float32, len(x))
		for i := range x {
			left[i], right[i] = 1<<24, float32(i%3)+0.5
		}
		f := &fakeEnv{arrived: []Msg{
			{Kind: KindExchangeReq, From: 1, Clock: 1, Vec: right},
			{Kind: KindExchangeReq, From: 3, Clock: 1, Vec: left},
		}}
		if err := loopDPSGD(f, loopConfig(t, DPSGD, 4, 1), 0, rep); err != nil {
			t.Fatal(err)
		}
		differs := false
		for i, got := range rep.Params() {
			want := (x[i] + left[i] + right[i]) * (1 / float32(3))
			if got != want {
				t.Fatalf("param %d mixed to %v, want (self + left + right)/3 = %v", i, got, want)
			}
			differs = differs || want != (x[i]+right[i]+left[i])*(1/float32(3))
		}
		if !differs {
			t.Fatal("the script cannot tell the fold orders apart")
		}
	})

	t.Run("request mid-swap", func(t *testing.T) {
		// A request from worker 1 overtakes the partner's reply: it must not
		// satisfy the swap, and the next answer serves it.
		f := &fakeEnv{peer: func(to int, m Msg) []Msg {
			if m.Kind != KindExchangeReq {
				return nil
			}
			return []Msg{{Kind: KindExchangeReq, From: 1, Clock: 7, Wire: 0.5},
				{Kind: KindExchangeReply, From: to, Clock: m.Clock, Wire: 0.25}}
		}}
		var took []string
		f.onRecv = func(m Msg) { took = append(took, kc(m.Kind, m.From)) }
		pr := newProtocol(f, loopConfig(t, ADPSGD, 4, 1), newCostReplica())
		if err := pr.swap(3, 5, nil); err != nil || !slices.Equal(took, []string{"11@3"}) {
			t.Fatalf("swap took %v, %v", took, err)
		}
		if err := pr.answer(false); err != nil || !slices.Equal(f.sent(KindExchangeReply), []string{"1@7"}) {
			t.Fatalf("answer sent %v, %v", f.sent(KindExchangeReply), err)
		}
		// The swap books its reply's wire and the answer its request's.
		if bd := f.Ledger().Breakdown(); bd[metrics.Network] != 0.75 {
			t.Fatalf("booked %v", bd)
		}
	})

	t.Run("ssp ack ahead of the reply", func(t *testing.T) {
		f := &fakeEnv{ps: func(_ int, m Msg) []Msg {
			return []Msg{{Kind: kindAck, Clock: m.Clock - 2}, {Kind: kindParams}}
		}}
		var acked []int
		pr := newProtocol(f, loopConfig(t, SSP, 4, 8), costRep())
		if err := pr.exchange(ps.Pull, 6, nil, func(c int) { acked = append(acked, c) }); err != nil ||
			!slices.Equal(acked, []int{4}) || len(f.arrived) != 0 {
			t.Fatalf("acked %v, left %v, %v", acked, f.arrived, err)
		}
	})

	t.Run("wrong kind in a drain", func(t *testing.T) {
		cfg := loopConfig(t, SSP, 4, 8)
		f := &fakeEnv{arrived: []Msg{{Kind: kindAck, Clock: 1}, {Kind: KindGossip, From: 2}}}
		acks := 0
		err := newProtocol(f, cfg, newCostReplica()).drain(kindAck, func(*Msg) { acks++ })
		if err == nil || acks != 1 || !strings.Contains(err.Error(), "unexpected kind") {
			t.Fatalf("drain returned %v after %d acks", err, acks)
		}
		// Under a fault schedule a parameter reply whose pull timed out is
		// dropped, not an error.
		cfg.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Slow, Worker: 1, Factor: 2}}}
		f = &fakeEnv{arrived: []Msg{{Kind: kindParams}, {Kind: kindAck, Clock: 1}}}
		if err := newProtocol(f, cfg, newCostReplica()).drain(kindAck, func(*Msg) { acks++ }); err != nil || acks != 2 {
			t.Fatalf("faulty drain returned %v after %d acks", err, acks)
		}
	})
}

// TestProtocolShortVector: a parameter-server reply or an exchange reply
// shorter than the model ends the loop with a protocol error naming its kind
// and sender, not a panic in the replica's fold.
func TestProtocolShortVector(t *testing.T) {
	short := []float32{1}
	for _, tc := range []struct {
		name string
		algo Algo
		f    *fakeEnv
		want string
	}{
		{"ps reply", ASP, &fakeEnv{ps: func(to int, m Msg) []Msg {
			return []Msg{{Kind: kindParams, From: to, Clock: m.Clock, Vec: short}}
		}}, fmt.Sprintf("kind %d from 4 holds 1 elements", kindParams)},
		{"exchange reply", ADPSGD, &fakeEnv{peer: func(to int, m Msg) []Msg {
			return []Msg{{Kind: KindExchangeReply, From: to, Clock: m.Clock, Vec: short}}
		}}, fmt.Sprintf("kind %d from ", KindExchangeReply)},
	} {
		cfg := loopConfig(t, tc.algo, 4, 2)
		ws, ovs := DeriveStreams(cfg.Seed, cfg.Workers)
		err := WorkerLoop(tc.f, cfg, 0, testReplica(t, 0), ws[0], BuildOverlay(cfg, ovs))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "holds 1 elements") {
			t.Fatalf("%s: loop ended with %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestProtocolShardRequests: a gradient request over three layer-wise shards
// — shard 0 owns the first and the last layer — sends shard s, at node
// Workers+s, exactly the DGC entries its ranges own, in index order, their
// values on the int8 grid and the fraction of the vector kept in Aux; a dense
// request sends every shard the one vector, round-tripped in place, with its
// codes and scale.
func TestProtocolShardRequests(t *testing.T) {
	cfg := realConfig(BSP, 4, 2, 3)
	cfg.Real.Factory = func(rr *rng.RNG) *nn.Model { return nn.NewMLP(rr, 2, 16, 16, 16, 3) }
	d := grad.DefaultDGC(0.9, 0)
	d.Ratio = 0.1
	cfg.Sharding, cfg.Shards, cfg.Quantize8, cfg.DGC = ShardLayerWise, 3, true, &d
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	streams, _ := DeriveStreams(cfg.Seed, cfg.Workers)
	r := rng.New(9)
	g := make([]float32, cfg.Real.Factory(nil).NumParams())
	for i := range g {
		g[i] = float32(r.NormFloat64())
	}
	request := func(it int) (*Replica, []float32, map[int]Msg) {
		t.Helper()
		rep := NewReplica(0, &cfg, streams[0], InitModel(&cfg).Weights())
		got := map[int]Msg{}
		f := &fakeEnv{ps: func(to int, m Msg) []Msg {
			got[to] = m
			return nil
		}}
		v := slices.Clone(g)
		if _, _, err := newProtocol(f, &cfg, rep).request(ps.Grad, it, v); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rep.shards) || len(rep.shards) != 3 {
			t.Fatalf("%d shards got %d messages", len(rep.shards), len(got))
		}
		return rep, v, got
	}

	// The same compressor's entries, their values through the int8 codec.
	want := grad.NewCompressor(d, len(g)).Compress(g)
	if err := grad.Dequantize8(grad.Quantize8(want.Val), want.Val); err != nil {
		t.Fatal(err)
	}
	rep, _, sparse := request(1)
	total := 0
	for s, ranges := range rep.shards {
		m := sparse[cfg.Workers+s]
		if m.Kind != kindSparseGrad || m.Seg != s || m.Clock != 1 || m.Aux != float64(len(want.Idx))/float64(len(g)) {
			t.Fatalf("shard %d: kind %d seg %d clock %d aux %v", s, m.Kind, m.Seg, m.Clock, m.Aux)
		}
		var idx []int32
		var val []float32
		for j, i := range want.Idx {
			for _, rg := range ranges {
				if int(i) >= rg.Off && int(i) < rg.Off+rg.Len {
					idx, val = append(idx, i), append(val, want.Val[j])
				}
			}
		}
		if !slices.Equal(m.Idx, idx) || !paramsBitEqual(m.Vec, val) {
			t.Fatalf("shard %d (ranges %v) took entries %v = %v, want %v = %v", s, ranges, m.Idx, m.Vec, idx, val)
		}
		total += len(idx)
	}
	if total != len(want.Idx) || total == 0 {
		t.Fatalf("the shards took %d of %d entries", total, len(want.Idx))
	}

	cfg.DGC = nil
	rep, v, got := request(2)
	q := grad.Quantize8(g)
	onGrid := make([]float32, len(g))
	if err := grad.Dequantize8(q, onGrid); err != nil {
		t.Fatal(err)
	}
	if !paramsBitEqual(v, onGrid) {
		t.Fatal("the dense gradient is not on the int8 grid")
	}
	for s := range rep.shards {
		m := got[cfg.Workers+s]
		if m.Kind != kindGrad || m.Seg != s || !m.Own || len(m.Vec) != len(g) || &m.Vec[0] != &v[0] ||
			!slices.Equal(m.Codes, q.Q) || float32(m.Aux) != q.Scale {
			t.Fatalf("shard %d: kind %d seg %d own %v, %d elements (shared: %v), scale %v want %v",
				s, m.Kind, m.Seg, m.Own, len(m.Vec), len(m.Vec) > 0 && &m.Vec[0] == &v[0], m.Aux, q.Scale)
		}
	}
}

// TestProtocolCollectives runs the collectives of the shared protocol over
// scripted arrival orders: a collective takes each chunk by its round and
// seg, whatever came first, and folds in the plan's order.
func TestProtocolCollectives(t *testing.T) {
	chunk := func(kind, clock, seg int, vec ...float32) Msg {
		return Msg{Kind: kind, Clock: clock, Seg: seg, Vec: vec}
	}

	t.Run("ring out of order", func(t *testing.T) {
		// Member 1 of a three-member ring over six elements, two per chunk:
		// it sums chunks 0 and 2 (segs 0, 2) in its reduce-scatter and takes
		// chunks 1 and 0 (segs 4, 3) in its all-gather. Every chunk arrives
		// out of seg order, behind a chunk of the next round.
		f := &fakeEnv{arrived: []Msg{
			chunk(KindAllReduce, 2, 0, 7, 7),
			chunk(KindAllReduce, 1, 3, 30, 31),
			chunk(KindAllReduce, 1, 2, 20, 21),
			chunk(KindAllReduce, 1, 4, 40, 41),
			chunk(KindAllReduce, 1, 0, 1, 1),
		}}
		var sent []string
		f.peer = func(to int, m Msg) []Msg {
			sent = append(sent, fmt.Sprintf("%d/%d%v", to, m.Seg, m.Vec))
			return nil
		}
		vec := []float32{1, 2, 3, 4, 5, 6}
		err := Collective(f, loopConfig(t, ARSGD, 3, 1), comm.Plan{Op: comm.OpRingAllReduce}, 1, []int{0, 1, 2}, 1, vec)
		if err != nil {
			t.Fatal(err)
		}
		// Sent: its own chunk 1, the sum of chunk 0, then the reduced chunk 2
		// and the gathered chunk 1.
		want := []string{"2/1[3 4]", "2/0[2 3]", "2/5[25 27]", "2/4[40 41]"}
		if !slices.Equal(sent, want) {
			t.Fatalf("sent %v, want %v", sent, want)
		}
		if !slices.Equal(vec, []float32{30, 31, 40, 41, 25, 27}) {
			t.Fatalf("ended with %v", vec)
		}
		if len(f.arrived) != 1 || f.arrived[0].Clock != 2 {
			t.Fatalf("the next round's chunk is not left parked: %v", f.arrived)
		}
	})

	t.Run("gather fold order", func(t *testing.T) {
		// The leader folds members 1, 2, 3 in that order, whatever order they
		// arrive in: float32 addition is not associative, and arrival order
		// (3, 1, 2) would end on 2, not 0.
		f := &fakeEnv{arrived: []Msg{
			chunk(KindLocalGather, 4, 3, -1<<24),
			chunk(KindLocalGather, 4, 1, 1<<24),
			chunk(KindLocalGather, 4, 2, 1),
		}}
		vec := []float32{1}
		if err := Collective(f, loopConfig(t, BSP, 4, 1), comm.Plan{Op: comm.OpGather}, 4, []int{0, 1, 2, 3}, 0, vec); err != nil {
			t.Fatal(err)
		}
		if vec[0] != 0 {
			t.Fatalf("gathered %v, want ((1 + 2²⁴) + 1) − 2²⁴ = 0", vec[0])
		}
	})

	t.Run("bcast member split", func(t *testing.T) {
		// A member's wait runs from 0 to 10 on its ledger's clock; the
		// leader's stamp splits what the wire leaves of it.
		for _, tc := range []struct {
			name                   string
			stamp, wire            float64
			network, local, global float64
		}{
			{"stamp before the wait", -1, 2, 2, 0, 8},
			{"stamp after the wait", 20, 2, 2, 8, 0},
			{"stamp inside the wait", 5, 2, 2, 5, 3},
			{"wire covers the wait", 5, 12, 12, 0, 0},
		} {
			now := 0.0
			f := &fakeEnv{arrived: []Msg{{Kind: KindLocalBcast, Clock: 3, Aux: tc.stamp, Wire: tc.wire}}}
			f.onRecv = func(Msg) { now = 10 }
			f.l = NewLedger(new(metrics.Breakdown), nil, func() float64 { return now }, 0, 0)
			pr := newProtocol(f, loopConfig(t, BSP, 4, 3), newCostReplica())
			if err := pr.bcast(3, []int{0, 1, 2, 3}, 2, 0); err != nil {
				t.Fatal(err)
			}
			bd := f.Ledger().Breakdown()
			if bd[metrics.Network] != tc.network || bd[metrics.LocalAgg] != tc.local || bd[metrics.GlobalAgg] != tc.global {
				t.Fatalf("%s: booked %v", tc.name, bd)
			}
		}
	})
}
