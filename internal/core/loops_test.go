package core

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
	"disttrain/internal/opt"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
)

// fakeEnv is a scripted Env: no engine, no sockets. It logs every call as
// "method arg", fails the failAt-th call of method fail with errBoom, and
// otherwise answers from the hooks a test sets (nil hooks do nothing).
type fakeEnv struct {
	log    []string
	calls  map[string]int
	fail   string
	failAt int

	gate      func(it int) (int, bool)
	acks      func() []int           // min clocks the next Acks delivers
	reachable func(base []int) []int // nil = base
	inbox     *[]gossip              // pushes waiting for FromPeers
	onMerge   func(g gossip)         // sees each push FromPeers delivers
	toPeer    func(to int, g gossip) // where ToPeer delivers
	onCompute func()
	onDone    func(it int)
}

type gossip struct {
	aux float64
	vec []float32
}

var errBoom = errors.New("boom")

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

func (f *fakeEnv) AllReduce(it int, nodes []int, self int) ([]float32, error) {
	return nil, f.call("AllReduce", it)
}

func (f *fakeEnv) GatherSum(it int, group []int, self int, vec []float32) error {
	return f.call("GatherSum", it)
}

func (f *fakeEnv) Bcast(it int, group []int, self int, params []float32) error {
	return f.call("Bcast", it)
}

func (f *fakeEnv) Exchange(kind ps.Kind, it int, vec []float32, ack func(int)) error {
	return f.call("Exchange", fmt.Sprint(kind, "@", it))
}

func (f *fakeEnv) Update(it int, vec []float32) error { return f.call("Update", it) }

func (f *fakeEnv) Acks(ack func(int)) error {
	if err := f.call("Acks", ""); err != nil {
		return err
	}
	if f.acks != nil {
		for _, c := range f.acks() {
			ack(c)
		}
	}
	return nil
}

func (f *fakeEnv) Reachable(base []int) []int {
	f.call("Reachable", base)
	if f.reachable != nil {
		return f.reachable(base)
	}
	return base
}

func (f *fakeEnv) ToPeer(to, it int, aux float64, vec []float32) error {
	if err := f.call("ToPeer", to); err != nil {
		return err
	}
	if f.toPeer != nil {
		f.toPeer(to, gossip{aux, vec})
	}
	return nil
}

func (f *fakeEnv) FromPeers(merge func([]float32, float64)) error {
	if err := f.call("FromPeers", ""); err != nil {
		return err
	}
	if f.inbox != nil {
		for _, g := range *f.inbox {
			if f.onMerge != nil {
				f.onMerge(g)
			}
			merge(g.vec, g.aux)
		}
		*f.inbox = nil
	}
	return nil
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

func (f *fakeEnv) Swap(peer, it int, vec []float32) error {
	return f.call("Swap", fmt.Sprint(peer, "@", it))
}

func (f *fakeEnv) Answer(wait bool) error { return f.call("Answer", wait) }

func (f *fakeEnv) Neighbors(it int, nbs []int, vec []float32) ([][]float32, error) {
	return make([][]float32, len(nbs)), f.call("Neighbors", fmt.Sprint(nbs, "@", it))
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
	return WorkerLoop(e, cfg, rank, newCostReplica(), ws[rank], BuildOverlay(cfg, ovs))
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
	f.acks = func() []int {
		it++
		min := max(it-r.Intn(7), 0)
		heard = max(heard, min)
		return []int{min}
	}
	f.onDone = func(it int) {
		if pulls := f.logged("Exchange"); len(pulls) > 0 && pulls[len(pulls)-1] == fmt.Sprint(ps.Pull, "@", it) {
			pulled, heard = it, max(heard, it-s)
		}
		if it-pulled > s || it-heard > s {
			t.Fatalf("iteration %d ended stale: last pull %d, slowest heard of %d, s = %d", it, pulled, heard, s)
		}
	}
	if err := runLoop(f, cfg, 0); err != nil {
		t.Fatal(err)
	}
	if got := f.logged("Update"); len(got) != cfg.Iters {
		t.Fatalf("%d updates for %d iterations: %v", len(got), cfg.Iters, got)
	}
	if n := len(f.logged("Exchange")); n == 0 || n == cfg.Iters {
		t.Fatalf("%d pulls in %d iterations: the script should force some, not all", n, cfg.Iters)
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
	if got := f.logged("Exchange"); !slices.Equal(got, want) {
		t.Fatalf("EASGD exchanged at %v, want %v (kind %d = ps.Push)", got, want, ps.Push)
	}

	cfg = loopConfig(t, AdaComm, 4, 40)
	cfg.Tau = 8
	rep := newCostReplica()
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
	if got := f.logged("Exchange"); !slices.Equal(got[:5], want) {
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

// TestLoopErrorStopsTheLoop: an error from any Env method a loop calls ends
// that loop at once and comes back unchanged.
func TestLoopErrorStopsTheLoop(t *testing.T) {
	methods := map[Algo][]string{
		BSP:     {"Gate", "GatherSum", "Exchange", "Bcast", "Done"},
		ASP:     {"Gate", "Exchange", "Done"},
		SSP:     {"Gate", "Update", "Acks", "Exchange", "Done"},
		EASGD:   {"Gate", "Exchange", "Done"},
		AdaComm: {"Gate", "Exchange", "Done"},
		ARSGD:   {"Gate", "AllReduce", "Done"},
		GoSGD:   {"Gate", "FromPeers", "ToPeer", "Done"},
		ADPSGD:  {"Gate", "Done"},
		DPSGD:   {"Gate", "Neighbors", "Done"},
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
					if algo == BSP && rank == 1 && m == "Exchange" {
						continue // members never talk to the PS
					}
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
	want := "Go comm,Gate 1,Compute false,Grad ,Reachable [1 3 5],Swap 3@1,Done 1," +
		"Gate 2,Compute false,Grad ,Reachable [1 3 5],Swap 3@2,Done 2," +
		"Gate 3,Compute false,Grad ,Reachable [1 3 5],Swap 3@3,Done 3"
	if got := strings.Join(run(cfg, 0, f), ","); got != want {
		t.Fatalf("active:\n got %s\nwant %s", got, want)
	}
	f = &fakeEnv{reachable: func([]int) []int { return nil }}
	if got := run(cfg, 2, f); len(f.logged("Swap")) != 0 {
		t.Fatalf("an active with no partner in reach exchanged: %v", got)
	}
	// A failed exchange ends the thread; its error comes back from the loop.
	f = &fakeEnv{fail: "Swap", failAt: 2}
	if err := runLoop(f, cfg, 0); err != errBoom || len(f.logged("Swap")) != 2 {
		t.Fatalf("exchange 2 failed: loop returned %v after exchanges %v", err, f.logged("Swap"))
	}
	if got := strings.Join(run(cfg, 1, &fakeEnv{}), ","); !strings.HasPrefix(got, "Go passive,Answer true,Gate 1") ||
		strings.Contains(got, "Swap") {
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
		for _, s := range f.logged("Swap") {
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
	if !strings.HasPrefix(log, "Go comm,") || strings.Count(log, "Answer false,Reachable [0 2 3 4 5],Swap") != cfg.Iters {
		t.Fatalf("no-bipartite: %s", log)
	}
}

// TestLoopDPSGDOrder pins D-PSGD's round: the pass, the ring exchange with
// (left, right), the mix, the step on the pass's gradient. A lone worker has
// no ring.
func TestLoopDPSGDOrder(t *testing.T) {
	for workers, want := range map[int]string{
		4: "Gate 1,Compute false,Neighbors [3 1]@1,Grad ,Done 1",
		2: "Gate 1,Compute false,Neighbors [1 1]@1,Grad ,Done 1",
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
		0: "Gate 1,Compute false,Grad ,GatherSum 1,Exchange 1@1,Bcast 1,Done 1",
		2: "Gate 1,Compute false,Grad ,GatherSum 1,Bcast 1,Done 1",
		4: "Gate 1,Compute false,Grad ,Exchange 1@1,Done 1", // alone on its machine
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
// delivering into the other's inbox. A worker pushes only to partners its
// Env calls reachable, every push ships exactly half the weight the worker
// then held, and weight mass — held plus in flight — is conserved.
func TestLoopGoSGDWeights(t *testing.T) {
	cfg := loopConfig(t, GoSGD, 3, 30)
	inbox := make([][]gossip, 2)
	held := []float64{1, 1} // each worker's weight, mirrored from what it is seen to do
	pushes := 0
	// A worker holds the turn from one gate to the next, and through its
	// final drain.
	turn := []chan struct{}{make(chan struct{}, 1), make(chan struct{}, 1)}
	errs := make(chan error, 2)
	for w := 0; w < 2; w++ {
		f := &fakeEnv{inbox: &inbox[w]}
		f.gate = func(it int) (int, bool) {
			if it > 1 {
				turn[1-w] <- struct{}{}
			}
			<-turn[w]
			return it, true
		}
		f.onMerge = func(g gossip) { held[w] += g.aux }
		// Worker 2 exists but is never reachable: nobody may push to it.
		f.reachable = func([]int) []int { return []int{1 - w} }
		f.toPeer = func(to int, g gossip) {
			if to != 1-w {
				t.Errorf("worker %d pushed to unreachable worker %d", w, to)
			}
			if g.aux != held[w]/2 {
				t.Errorf("worker %d holding %v pushed weight %v", w, held[w], g.aux)
			}
			held[w] = g.aux
			inbox[to] = append(inbox[to], g)
			pushes++
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
	for _, in := range inbox {
		for _, g := range in {
			mass += g.aux
		}
	}
	if pushes < 10 || mass != 2 {
		t.Fatalf("after %d pushes the weight mass is %v, want exactly 2", pushes, mass)
	}
}
