package ps

import (
	"fmt"
	"io"
	"slices"
	"testing"

	"disttrain/internal/opt"
)

// wireEvent is one thing a scripted wire's Recv meets: a message, a bye, or
// a bounded wait running out — which a blocking wait sits through.
type wireEvent struct {
	m       Msg
	bye     bool
	timeout bool
}

// scriptWire is a ps.Wire that plays a script. Like the live server it ends
// service at the last bye; it logs every bounded flag, every reply sent and
// every vector released, the last two in one sequence.
type scriptWire struct {
	t       *testing.T
	script  []wireEvent
	byes    int
	bounded []bool
	log     []string
	names   map[*float32]string // vector → name in the log
}

func newScriptWire(t *testing.T, byes int, script ...wireEvent) *scriptWire {
	w := &scriptWire{t: t, script: script, byes: byes, names: map[*float32]string{}}
	for _, e := range script {
		if len(e.m.Vec) > 0 {
			w.names[&e.m.Vec[0]] = fmt.Sprintf("w%d/%d", e.m.From, e.m.Clock)
		}
	}
	return w
}

func (w *scriptWire) Recv(bounded bool) (Msg, bool, error) {
	w.bounded = append(w.bounded, bounded)
	for w.byes > 0 {
		if len(w.script) == 0 {
			w.t.Fatal("Recv past the end of the script")
		}
		e := w.script[0]
		w.script = w.script[1:]
		switch {
		case e.bye:
			w.byes--
		case e.timeout && bounded:
			return Msg{}, false, nil
		case !e.timeout:
			return e.m, true, nil
		}
	}
	return Msg{}, false, io.EOF
}

func (w *scriptWire) Send(out []Reply) error {
	for _, r := range out {
		w.log = append(w.log, fmt.Sprintf("send %d→%d/%d", r.Kind, r.To, r.Clock))
	}
	return nil
}

func (w *scriptWire) Release(vec []float32) {
	if len(vec) > 0 {
		w.log = append(w.log, "release "+w.names[&vec[0]])
	}
}

// serve runs Serve over w and fails the test on an error or on script left
// unplayed.
func serve(t *testing.T, s *Shard, w *scriptWire) {
	t.Helper()
	if err := Serve(s, w); err != nil {
		t.Fatal(err)
	}
	if len(w.script) > 0 {
		t.Fatalf("service ended with %d events unplayed", len(w.script))
	}
}

func grad(from, clock int, v float32) wireEvent {
	return wireEvent{m: Msg{From: from, Kind: Grad, Clock: clock, Vec: []float32{v, -v}}}
}

var bye, timeout = wireEvent{bye: true}, wireEvent{timeout: true}

// wantLog fails the test unless the wire logged exactly want.
func wantLog(t *testing.T, w *scriptWire, want ...string) {
	t.Helper()
	if !slices.Equal(w.log, want) {
		t.Fatalf("wire log\n%q\nwant\n%q", w.log, want)
	}
}

// TestServeHoldsEarlyGradient: worker 2 rejoins at round 2 and its gradient
// arrives while round 1 is still open. It waits in the shard — its vector
// kept — joins round 2 when round 1 closes, is folded there in ascending
// rank and is answered when round 2 closes. The parameters are those of the
// rounds delivered one after the other.
func TestServeHoldsEarlyGradient(t *testing.T) {
	rule := Rule{Proto: BSP, Workers: 3, Iters: 2, LR: opt.Schedule{Base: 0.5},
		Members: func(round int) int { return []int{0, 2, 3}[round] }}
	g := NewGlobal([]float32{1, 1}, 0.9, 0)
	w := newScriptWire(t, 3,
		grad(1, 1, 3), grad(2, 2, 1e8), grad(0, 1, 5),
		grad(1, 2, 1), grad(0, 2, -1e8),
		bye, bye, bye)
	serve(t, NewShard(g, []Range{{0, 2}}, rule), w)
	wantLog(t, w,
		"release w1/1", "release w0/1", "send 3→1/1", "send 3→0/1",
		"release w2/2", "release w1/2", "release w0/2", "send 3→2/2", "send 3→1/2", "send 3→0/2")

	ref := NewGlobal([]float32{1, 1}, 0.9, 0)
	s := NewShard(ref, []Range{{0, 2}}, rule)
	for _, e := range []wireEvent{grad(0, 1, 5), grad(1, 1, 3), grad(0, 2, -1e8), grad(1, 2, 1), grad(2, 2, 1e8)} {
		handle(t, s, e.m)
	}
	if !bitsEqual(g.Params, ref.Params) {
		t.Fatalf("params %v, want %v", g.Params, ref.Params)
	}
}

// TestServeDropsGradientForExpiredRound: round 1 times out with worker 0's
// gradient alone; worker 1's, arriving after, is dropped — its vector goes
// back at once, and worker 1 gets the current parameters to go on from — and
// round 2 folds only its own.
func TestServeDropsGradientForExpiredRound(t *testing.T) {
	rule := Rule{Proto: BSP, Workers: 2, Iters: 2, LR: opt.Schedule{Base: 0.5}}
	g := NewGlobal([]float32{1, 1}, 0, 0)
	w := newScriptWire(t, 2,
		grad(0, 1, 4), timeout, grad(1, 1, 1e8),
		grad(1, 2, 2), grad(0, 2, 6),
		bye, bye)
	serve(t, NewShard(g, []Range{{0, 2}}, rule), w)
	wantLog(t, w,
		"release w0/1", "send 3→0/1", "release w1/1", "send 3→1/1",
		"release w1/2", "release w0/2", "send 3→1/2", "send 3→0/2")
	// Both rounds divide by the two members: 1 − 0.5·(4/2) − 0.5·(8/2).
	if g.Params[0] != -2 || g.Params[1] != 4 {
		t.Fatalf("params %v, want [-2 4]", g.Params)
	}
}

// TestServeByeMidRound: a bye between two gradients of the open round leaves
// the round alone, and service ends at the wire's last bye — here one that
// comes while round 2 is still open.
func TestServeByeMidRound(t *testing.T) {
	rule := Rule{Proto: BSP, Workers: 2, Iters: 2, LR: opt.Schedule{Base: 0.5}}
	g := NewGlobal([]float32{1, 1}, 0, 0)
	w := newScriptWire(t, 2, grad(0, 1, 2), bye, grad(1, 1, 2), grad(1, 2, 2), bye)
	s := NewShard(g, []Range{{0, 2}}, rule)
	serve(t, s, w)
	wantLog(t, w, "release w0/1", "release w1/1", "send 3→0/1", "send 3→1/1")
	if g.Params[0] != 0 || s.round != 2 || !s.keeps(Msg{Clock: 2}) {
		t.Fatalf("params %v, open round %d", g.Params, s.round)
	}
}

// TestServeExpiresUnderBoundedWaits: the loop bounds its wait exactly while
// the shard holds something expire could let go. An expiry that moves
// nothing is barren; after three barren wakeups in a row the loop blocks, and
// the script's next timeout passes unnoticed, until a message arrives.
func TestServeExpiresUnderBoundedWaits(t *testing.T) {
	t.Run("bsp", func(t *testing.T) {
		// Expiring round 1 closes it with worker 0 alone, and round 2 again
		// waits bounded.
		rule := Rule{Proto: BSP, Workers: 2, Iters: 2, LR: opt.Schedule{Base: 0.5}}
		w := newScriptWire(t, 2, grad(0, 1, 1), timeout, grad(0, 2, 1), grad(1, 2, 1), bye, bye)
		serve(t, NewShard(NewGlobal([]float32{0, 0}, 0, 0), []Range{{0, 2}}, rule), w)
		if want := []bool{true, true, true, true, false}; !slices.Equal(w.bounded, want) {
			t.Fatalf("bounded waits %v, want %v", w.bounded, want)
		}
		wantLog(t, w, "release w0/1", "send 3→0/1", "release w0/2", "release w1/2", "send 3→0/2", "send 3→1/2")

		// Three rounds whose gradients were all lost expire in a row; each
		// expiry moved, so the fourth wait is bounded still.
		rule.Iters = 4
		w = newScriptWire(t, 2, timeout, timeout, timeout, grad(0, 4, 1), grad(1, 4, 1), bye, bye)
		serve(t, NewShard(NewGlobal([]float32{0, 0}, 0, 0), []Range{{0, 2}}, rule), w)
		if want := []bool{true, true, true, true, true, false}; !slices.Equal(w.bounded, want) {
			t.Fatalf("bounded waits %v, want %v", w.bounded, want)
		}
	})
	t.Run("ssp-barren", func(t *testing.T) {
		// Worker 0's pull waits for worker 1, which the shard never sees die.
		rule := Rule{Proto: SSP, Workers: 2, Staleness: 0, Clock: true}
		pull := wireEvent{m: Msg{From: 0, Kind: Pull, Clock: 1}}
		w := newScriptWire(t, 2, grad(0, 1, 1), pull,
			timeout, timeout, timeout, timeout, grad(1, 1, 1), bye, bye)
		serve(t, NewShard(NewGlobal([]float32{0, 0}, 0, 0), []Range{{0, 2}}, rule), w)
		if want := []bool{false, false, true, true, true, false, false}; !slices.Equal(w.bounded, want) {
			t.Fatalf("bounded waits %v, want %v", w.bounded, want)
		}
		wantLog(t, w, "release w0/1", "send 5→0/0", "release w1/1", "send 5→1/1", "send 3→0/1")
	})
}

// TestServeReleasesVectorsWhenDone: an ASP gradient goes back before its
// reply is written, an SSP update that gets no reply at once, and EASGD's
// pushed vector — the reply — after its Send.
func TestServeReleasesVectorsWhenDone(t *testing.T) {
	asp := newScriptWire(t, 1, grad(0, 1, 1), bye)
	serve(t, NewShard(NewGlobal([]float32{0, 0}, 0, 0), []Range{{0, 2}},
		Rule{Proto: ASP, Workers: 1, LR: opt.Schedule{Base: 0.1}}), asp)
	wantLog(t, asp, "release w0/1", "send 3→0/1")

	ssp := newScriptWire(t, 1, grad(0, 1, 1), grad(0, 2, 1), bye)
	serve(t, NewShard(NewGlobal([]float32{0, 0}, 0, 0), []Range{{0, 2}},
		Rule{Proto: SSP, Workers: 1, Staleness: 1}), ssp)
	wantLog(t, ssp, "release w0/1", "release w0/2")

	push := wireEvent{m: Msg{From: 0, Kind: Push, Clock: 1, Vec: []float32{2, 2}}}
	easgd := newScriptWire(t, 1, push, bye)
	serve(t, NewShard(NewGlobal([]float32{0, 0}, 0, 0), []Range{{0, 2}},
		Rule{Proto: Elastic, Workers: 1, Alpha: 0.5}), easgd)
	wantLog(t, easgd, "send 7→0/1", "release w0/1")
}
