package ps

import (
	"math"
	"slices"
	"testing"

	"disttrain/internal/opt"
	"disttrain/internal/rng"
)

// handle feeds one message and fails the test on a protocol error. The
// returned replies are copied: the shard reuses its slice.
func handle(t *testing.T, s *Shard, m Msg) []Reply {
	t.Helper()
	out, err := s.Handle(m)
	if err != nil {
		t.Fatalf("Handle(%+v): %v", m, err)
	}
	return append([]Reply(nil), out...)
}

// is reports whether r is the vector-less reply (to, kind, clock).
func is(r Reply, to int, kind Kind, clock int) bool {
	return r.To == to && r.Kind == kind && r.Clock == clock && r.Vec == nil
}

func bitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// permutations calls f with every ordering of 0..n-1.
func permutations(n int, f func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			f(p)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
}

// TestBSPFoldIgnoresArrivalOrder is the fold-order contract: two rounds of
// four contributions whose sum depends on the order of addition give the
// same bits under all 24 arrival orders, dense and sparse, and the replies
// name the senders in the order they arrived.
func TestBSPFoldIgnoresArrivalOrder(t *testing.T) {
	const W = 4
	init := []float32{0.5, -1.25, 3, 1e-3, -7, 2}
	// Magnitudes spread over many binades, so (a+b)+c != a+(b+c).
	dense := [W][]float32{
		{1e8, 3.14159, -2.5e-4, 1, 7e7, 1e-7},
		{1, -1e8, 1e4, 1e-5, -7e7, 0.3},
		{-1e8, 2.71828, 1e-3, -1, 0.1, 0.7},
		{0.333, 1e8, -1e4, 1e5, 0.2, -1},
	}
	sparseIdx := [W][]int32{{0, 2, 5}, {2, 0}, {5, 2, 1}, {0, 5}}
	sparseVal := [W][]float32{{1e8, 1e-3, 1}, {1, -1e8}, {1e-7, 1e4, 2}, {-1e8, 0.3}}
	ranges := []Range{{0, 2}, {3, 3}} // index 2 belongs to another shard

	for _, sparse := range []bool{false, true} {
		var want []float32
		permutations(W, func(order []int) {
			g := NewGlobal(slices.Clone(init), 0.9, 1e-4)
			s := NewShard(g, ranges, Rule{Proto: BSP, Workers: W, Iters: 2,
				LR: opt.Schedule{Base: 0.05}, Sparse: sparse})
			for round := 1; round <= 2; round++ {
				if s.Round() != round || !s.Waiting() || s.Done() {
					t.Fatalf("round %d: Round()=%d Waiting=%v Done=%v", round, s.Round(), s.Waiting(), s.Done())
				}
				for k, w := range order {
					m := Msg{From: w, Kind: Grad, Clock: round, Vec: dense[w]}
					if sparse {
						m = Msg{From: w, Kind: SparseGrad, Clock: round, Idx: sparseIdx[w], Vec: sparseVal[w]}
					}
					out := handle(t, s, m)
					if k < W-1 {
						if len(out) != 0 {
							t.Fatalf("order %v: reply before the round closed", order)
						}
						continue
					}
					if len(out) != W {
						t.Fatalf("order %v: %d replies, want %d", order, len(out), W)
					}
					for i, r := range out {
						if r.To != order[i] || r.Kind != Params || r.Clock != round {
							t.Fatalf("order %v: reply %d = %+v, want Params to %d", order, i, r, order[i])
						}
					}
				}
			}
			if !s.Done() || s.Waiting() || s.Round() != 0 {
				t.Fatalf("order %v: shard not done after its last round", order)
			}
			if want == nil {
				want = append([]float32(nil), g.Params...)
				if bitsEqual(want, init) {
					t.Fatal("rounds did not move the parameters")
				}
				if !sparse && want[2] != init[2] {
					t.Fatal("dense step wrote outside the shard's ranges")
				}
			} else if !bitsEqual(g.Params, want) {
				t.Fatalf("sparse=%v order %v: %v, want %v", sparse, order, g.Params, want)
			}
		})
	}
}

// TestBSPRounds covers what decides a round's width and divisor: Senders
// (local aggregation) closes early but still divides by the members, rounds
// nobody runs are skipped, and Expire closes with whoever arrived.
func TestBSPRounds(t *testing.T) {
	step := func(g float32, members int) float32 { return 1 - 0.5*(g/float32(members)) } // from p = 1, lr 0.5
	rule := Rule{Proto: BSP, Workers: 4, Iters: 3, LR: opt.Schedule{Base: 0.5}}
	vec := func(v float32) []float32 { return []float32{v} }

	// Two machine leaders send pre-summed gradients for four workers.
	g := NewGlobal([]float32{1}, 0, 0)
	r := rule
	r.Senders = 2
	s := NewShard(g, []Range{{0, 1}}, r)
	handle(t, s, Msg{From: 0, Kind: Grad, Vec: vec(3)})
	if out := handle(t, s, Msg{From: 2, Kind: Grad, Vec: vec(5)}); len(out) != 2 || s.Round() != 2 {
		t.Fatalf("local aggregation: %d replies, round %d", len(out), s.Round())
	}
	if want := step(8, 4); g.Params[0] != want {
		t.Fatalf("local aggregation: %v, want %v (sum/members)", g.Params[0], want)
	}

	// Members: round 1 has two, round 2 nobody (skipped), round 3 three.
	g = NewGlobal([]float32{1}, 0, 0)
	r = rule
	r.Members = func(round int) int { return []int{0, 2, 0, 3}[round] }
	s = NewShard(g, []Range{{0, 1}}, r)
	handle(t, s, Msg{From: 1, Kind: Grad, Vec: vec(2)})
	handle(t, s, Msg{From: 3, Kind: Grad, Vec: vec(4)})
	if want := step(6, 2); g.Params[0] != want || s.Round() != 3 {
		t.Fatalf("members: %v (want %v), round %d (want 3)", g.Params[0], want, s.Round())
	}
	// Round 3 times out with one of three contributions: it still closes,
	// divides by the membership and answers the one sender.
	handle(t, s, Msg{From: 0, Kind: Grad, Vec: vec(9)})
	before := g.Params[0]
	out, moved := s.Expire()
	if !moved || len(out) != 1 || out[0].To != 0 || !s.Done() {
		t.Fatalf("expire: moved=%v replies=%v done=%v", moved, out, s.Done())
	}
	if want := before - 0.5*(9/float32(3)); g.Params[0] != want {
		t.Fatalf("expire: %v, want %v", g.Params[0], want)
	}
	if _, err := s.Handle(Msg{From: 0, Kind: Grad, Vec: vec(1)}); err == nil {
		t.Fatal("gradient after the last round accepted")
	}
	if out, moved := s.Expire(); moved || len(out) != 0 {
		t.Fatal("expire on a finished shard did something")
	}
}

// TestASPDampingClosedForm: on a hand-written arrival trace every step is
// lr / (1 + updates − pulledAt[from]), and plain lr with damping off.
func TestASPDampingClosedForm(t *testing.T) {
	trace := []struct{ from, staleness int }{
		{0, 0}, // nobody has updated yet
		{1, 1}, // missed worker 0's update
		{2, 2},
		{0, 2}, // pulled after update 1, now at 3
		{0, 0}, // back to back
		{1, 3}, // pulled after update 2, now at 5
	}
	const lr = 0.1
	for _, damping := range []bool{true, false} {
		g := NewGlobal([]float32{0, 0}, 0, 0)
		s := NewShard(g, []Range{{0, 2}}, Rule{Proto: ASP, Workers: 3,
			LR: opt.Schedule{Base: lr}, Damping: damping})
		clock := make([]int, 3)
		want := float32(0)
		for i, st := range trace {
			clock[st.from]++
			out := handle(t, s, Msg{From: st.from, Kind: Grad, Clock: clock[st.from], Vec: []float32{1, 1}})
			if len(out) != 1 || !is(out[0], st.from, Params, clock[st.from]) {
				t.Fatalf("step %d: replies %+v", i, out)
			}
			eff := float32(lr)
			if damping {
				eff /= float32(1 + st.staleness)
			}
			want -= eff
			if g.Params[0] != want || g.Params[1] != want {
				t.Fatalf("damping=%v step %d (from %d): params %v, want %v", damping, i, st.from, g.Params, want)
			}
		}
	}
}

// sspModel mirrors what the clock service must know, so the test can check
// every answer against the definition instead of against the code.
type sspModel struct {
	s      int
	clocks []int
	alive  []bool
	parked map[pull]bool
}

func (m *sspModel) min() int {
	min := -1
	for w, c := range m.clocks {
		if m.alive[w] && (min < 0 || c < min) {
			min = c
		}
	}
	if min < 0 {
		return m.clocks[0]
	}
	return min
}

// check verifies one batch of replies: every Params answer meets the bound,
// was asked for, and afterwards no pull whose bound is met is still parked.
func (m *sspModel) check(t *testing.T, out []Reply) {
	t.Helper()
	for _, r := range out {
		switch r.Kind {
		case Params:
			pk := pull{r.To, r.Clock}
			if !m.parked[pk] {
				t.Fatalf("params to %d for clock %d that nobody is waiting for", r.To, r.Clock)
			}
			if m.min() < r.Clock-m.s {
				t.Fatalf("pull of clock %d answered at min clock %d (s=%d)", r.Clock, m.min(), m.s)
			}
			delete(m.parked, pk)
		case Ack:
			if r.Clock != m.min() {
				t.Fatalf("ack carries %d, min clock is %d", r.Clock, m.min())
			}
		default:
			t.Fatalf("unexpected reply %+v", r)
		}
	}
	for pk := range m.parked {
		if m.min() >= pk.clock-m.s {
			t.Fatalf("pull %+v still parked at min clock %d (s=%d)", pk, m.min(), m.s)
		}
	}
}

// TestSSPClockService drives random interleavings of updates, pulls, deaths
// and timeouts through the clock shard and checks the staleness gate after
// every step: no pull is answered while minClock < clock − s, exactly the
// parked pulls whose bound is met are released, and dead workers drop out
// of the minimum.
func TestSSPClockService(t *testing.T) {
	const W, S, iters = 4, 2, 12
	for seed := uint64(1); seed <= 20; seed++ {
		r := rng.New(seed)
		m := &sspModel{s: S, clocks: make([]int, W), alive: []bool{true, true, true, true}, parked: map[pull]bool{}}
		g := NewGlobal(make([]float32, 3), 0, 0)
		s := NewShard(g, []Range{{0, 3}}, Rule{Proto: SSP, Workers: W, Staleness: S, Clock: true,
			Alive: func(w int) bool { return m.alive[w] }})
		sum := float32(0)
		blocked := make([]bool, W) // waiting for a pull's answer
		parkedEver := false
		for steps := 0; steps < 400; steps++ {
			w := r.Intn(W)
			switch {
			case r.Bernoulli(0.05) && w != 0:
				// Worker w dies (or comes back); the shard only learns of it
				// when the driver's timeout makes it look again.
				m.alive[w] = !m.alive[w]
				out, moved := s.Expire()
				if moved != (len(out) > 0) {
					t.Fatalf("seed %d: Expire moved=%v with %d replies", seed, moved, len(out))
				}
				m.check(t, out)
			case !m.alive[w] || blocked[w] || m.clocks[w] >= iters:
				continue
			default:
				m.clocks[w]++
				sum += float32(w + 1)
				d := float32(w + 1)
				m.check(t, handle(t, s, Msg{From: w, Kind: Grad, Clock: m.clocks[w], Vec: []float32{d, d, d}}))
				if r.Bernoulli(0.5) {
					m.parked[pull{w, m.clocks[w]}] = true
					blocked[w] = true
					out := handle(t, s, Msg{From: w, Kind: Pull, Clock: m.clocks[w]})
					parkedEver = parkedEver || len(out) == 0
					m.check(t, out)
				}
			}
			for w := range blocked {
				blocked[w] = false
			}
			for pk := range m.parked {
				blocked[pk.worker] = true
			}
			if s.Waiting() != (len(m.parked) > 0) {
				t.Fatalf("seed %d: Waiting()=%v with %d parked", seed, s.Waiting(), len(m.parked))
			}
		}
		if !parkedEver {
			t.Fatalf("seed %d: the script never parked a pull", seed)
		}
		if g.Params[0] != sum {
			t.Fatalf("seed %d: accumulated %v, want %v", seed, g.Params[0], sum)
		}
	}
}

// TestSSPDeadWorkerLeavesTheMinimum is the elastic case by hand: a pull
// parked behind a worker that never moves is released by Expire once the
// alive predicate drops that worker, and a shard that is not the clock
// service neither acks nor parks.
func TestSSPDeadWorkerLeavesTheMinimum(t *testing.T) {
	alive := []bool{true, true}
	g := NewGlobal(make([]float32, 1), 0, 0)
	rule := Rule{Proto: SSP, Workers: 2, Staleness: 1, Clock: true,
		Alive: func(w int) bool { return alive[w] }}
	s := NewShard(g, []Range{{0, 1}}, rule)
	for c := 1; c <= 2; c++ {
		if out := handle(t, s, Msg{From: 0, Kind: Grad, Clock: c, Vec: []float32{1}}); len(out) != 1 || out[0].Kind != Ack || out[0].Clock != 0 {
			t.Fatalf("update %d: replies %+v, want an ack carrying min clock 0", c, out)
		}
	}
	if out := handle(t, s, Msg{From: 0, Kind: Pull, Clock: 2}); len(out) != 0 || !s.Waiting() {
		t.Fatalf("pull two clocks ahead of worker 1 answered: %+v", out)
	}
	if out, moved := s.Expire(); moved || len(out) != 0 {
		t.Fatal("Expire released a pull whose bound is not met")
	}
	alive[1] = false
	out, moved := s.Expire()
	if !moved || len(out) != 1 || !is(out[0], 0, Params, 2) || s.Waiting() {
		t.Fatalf("after worker 1 died: moved=%v replies=%+v", moved, out)
	}

	rule.Clock = false
	s = NewShard(g, []Range{{0, 1}}, rule)
	if out := handle(t, s, Msg{From: 0, Kind: Grad, Clock: 5, Vec: []float32{1}}); len(out) != 0 {
		t.Fatalf("non-clock shard acked: %+v", out)
	}
	if out := handle(t, s, Msg{From: 0, Kind: Pull, Clock: 5}); len(out) != 1 || out[0].Kind != Params {
		t.Fatalf("non-clock shard parked a pull: %+v", out)
	}
}

// TestElasticMoveConservesMass: x̃ + xᵢ is unchanged per element (exactly, on
// dyadic values), only the shard's ranges move, and the reply carries the
// pushed vector.
func TestElasticMoveConservesMass(t *testing.T) {
	global := []float32{4, -2, 0.5, 16}
	local := []float32{8, 6, -3.5, 1}
	g := NewGlobal(slices.Clone(global), 0, 0)
	s := NewShard(g, []Range{{0, 1}, {2, 2}}, Rule{Proto: Elastic, Workers: 2, Alpha: 0.25})
	push := append([]float32(nil), local...)
	out := handle(t, s, Msg{From: 1, Kind: Push, Clock: 8, Vec: push})
	if len(out) != 1 || out[0].To != 1 || out[0].Kind != PushReply || out[0].Clock != 8 || &out[0].Vec[0] != &push[0] {
		t.Fatalf("reply %+v", out)
	}
	for i := range global {
		if g.Params[i]+push[i] != global[i]+local[i] {
			t.Fatalf("element %d: x̃+x = %v, was %v", i, g.Params[i]+push[i], global[i]+local[i])
		}
	}
	if g.Params[1] != global[1] || push[1] != local[1] {
		t.Fatal("element outside the shard's ranges moved")
	}
	if g.Params[0] != 5 || push[0] != 7 {
		t.Fatalf("element 0: x̃=%v x=%v, want 5 and 7", g.Params[0], push[0])
	}
}

// TestShardRejectsForeignMessages: a message that is not part of the
// protocol is an error, not a panic, and leaves the parameters alone.
func TestShardRejectsForeignMessages(t *testing.T) {
	vec := []float32{1}
	cases := []struct {
		name  string
		proto Proto
		m     Msg
	}{
		{"rank below range", ASP, Msg{From: -1, Kind: Grad, Vec: vec}},
		{"rank above range", ASP, Msg{From: 2, Kind: Grad, Vec: vec}},
		{"pull at ASP", ASP, Msg{From: 0, Kind: Pull}},
		{"push at BSP", BSP, Msg{From: 0, Kind: Push, Vec: vec}},
		{"gradient at EASGD", Elastic, Msg{From: 0, Kind: Grad, Vec: vec}},
		{"reply kind at SSP", SSP, Msg{From: 0, Kind: Params}},
		{"unknown kind", SSP, Msg{From: 0, Kind: 99}},
	}
	for _, tc := range cases {
		g := NewGlobal([]float32{1}, 0, 0)
		s := NewShard(g, []Range{{0, 1}}, Rule{Proto: tc.proto, Workers: 2, Iters: 1,
			LR: opt.Schedule{Base: 0.1}, Clock: true, Alpha: 0.5})
		if out, err := s.Handle(tc.m); err == nil || len(out) != 0 {
			t.Errorf("%s: accepted (%+v)", tc.name, out)
		}
		if g.Params[0] != 1 {
			t.Errorf("%s: parameters moved", tc.name)
		}
	}
}

// TestCostOnlyShardAllocatesNothingPerMessage guards the simulator's scale
// runs: with no parameter math a message costs no allocation once the
// shard's reply and round buffers have grown (a BSP close still pays
// sort.Slice's three small ones).
func TestCostOnlyShardAllocatesNothingPerMessage(t *testing.T) {
	const W = 64
	for _, tc := range []struct {
		name  string
		rule  Rule
		kinds []Kind
		max   float64
	}{
		{"asp", Rule{Proto: ASP}, []Kind{Grad}, 0},
		{"ssp", Rule{Proto: SSP, Staleness: 1, Clock: true}, []Kind{SparseGrad, Pull}, 0},
		{"easgd", Rule{Proto: Elastic}, []Kind{Push}, 0},
		{"bsp", Rule{Proto: BSP, Iters: 1 << 30}, []Kind{Grad}, 4},
	} {
		tc.rule.Workers = W
		s := NewShard(NewCostOnlyGlobal(), []Range{{0, 1000}}, tc.rule)
		clock := 0
		round := func() {
			clock++
			for w := 0; w < W; w++ {
				for _, k := range tc.kinds {
					if _, err := s.Handle(Msg{From: w, Kind: k, Clock: clock}); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		round()
		if got := testing.AllocsPerRun(20, round); got > tc.max {
			t.Errorf("%s: %.0f allocations per %d-message round, want at most %.0f", tc.name, got, W*len(tc.kinds), tc.max)
		}
	}
}

// TestBound: a worker refreshes every s+1 iterations, and earlier when it
// runs more than s clocks ahead of the slowest worker it has heard of.
func TestBound(t *testing.T) {
	b := Bound{S: 2}
	var pulls []int
	for it := 1; it <= 9; it++ {
		b.Ack(it) // alone in the run: the minimum is the worker's own clock
		if b.Stale(it) {
			pulls = append(pulls, it)
			b.Refreshed(it)
		}
	}
	if len(pulls) != 3 || pulls[0] != 3 || pulls[1] != 6 || pulls[2] != 9 {
		t.Fatalf("lone worker pulled at %v, want every s+1 = 3 iterations", pulls)
	}

	b = Bound{S: 2}
	b.Ack(1) // a straggler holds the minimum at 1
	pulls = nil
	for it := 1; it <= 5; it++ {
		if b.Stale(it) {
			pulls = append(pulls, it)
			b.Refreshed(it) // released, so the minimum was at least it − s
		}
	}
	// it=3: cache too old. it=4: 4 − min(1) > 2, ahead of the straggler, and
	// the release proves min ≥ 2. it=5: 5 − 2 > 2 again.
	if len(pulls) != 3 || pulls[0] != 3 || pulls[1] != 4 || pulls[2] != 5 {
		t.Fatalf("worker ahead of a straggler pulled at %v, want [3 4 5]", pulls)
	}
	b.Ack(0) // an older ack never lowers the minimum
	if b.lastMin != 3 {
		t.Fatalf("lastMin = %d after a stale ack, want 3", b.lastMin)
	}
}
