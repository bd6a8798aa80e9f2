package live

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/xport"
)

// The coordinator's rules after START live in runState.step, which takes
// its time as an argument. These tests drive it with scripted events at
// synthetic times — no sockets, no timers — so every ordering the control
// plane can produce is reproduced on demand.

// coordConfig is a run of four ranks whose crash schedule reaches every rule
// of the loop: rank 0 never crashes, so losing its connection fails the run;
// rank 1 crashes once and rank 2 twice, each time coming back; rank 3
// crashes and never comes back, so it is written off.
func coordConfig(t testing.TB) core.Config {
	cfg := liveConfig(core.BSP, 4, 12, 42)
	cfg.Elastic = true
	cfg.Faults = &fault.Schedule{Events: []fault.Event{
		{Kind: fault.Crash, AtIter: 4, Worker: 1, Restart: 0.1},
		{Kind: fault.Crash, AtIter: 5, Worker: 2, Restart: 0.1},
		{Kind: fault.Crash, AtIter: 9, Worker: 2, Restart: 0.1},
		{Kind: fault.Crash, AtIter: 10, Worker: 3},
	}}
	if err := Validate(&cfg); err != nil {
		t.Fatal(err)
	}
	return cfg
}

// ctlConn is a control connection as step sees it: it keeps what the
// coordinator writes and whether it was closed.
type ctlConn struct {
	net.Conn // step uses none of the other methods
	out      bytes.Buffer
	closed   bool
}

func (c *ctlConn) Write(p []byte) (int, error) {
	if c.closed {
		return 0, net.ErrClosed
	}
	return c.out.Write(p)
}

func (c *ctlConn) Close() error                     { c.closed = true; return nil }
func (c *ctlConn) SetWriteDeadline(time.Time) error { return nil }

// sent lists the kinds of the frames written to c.
func (c *ctlConn) sent() []uint16 {
	var kinds []uint16
	for r := bytes.NewReader(c.out.Bytes()); ; {
		f, err := xport.ReadFrame(r, xport.MaxFrameBytes)
		if err != nil {
			return kinds
		}
		kinds = append(kinds, f.Kind)
	}
}

// coordStart is START on the synthetic clock.
var coordStart = time.Unix(1000, 0)

// coordRig holds a runState just past START and the control connections of
// every incarnation of every rank: conns[r][0] was admitted at START, and
// conns[r][k] is the connection of rank r's k-th restart.
type coordRig struct {
	st    *runState
	conns [][]*ctlConn
}

func newCoordRig(cfg core.Config) *coordRig {
	st := newRunState(&cfg, nil)
	st.start, st.peerList = coordStart, strings.Repeat("127.0.0.1:1,", cfg.Workers)+"127.0.0.1:1"
	r := &coordRig{st: st, conns: make([][]*ctlConn, cfg.Workers)}
	for rank := range st.conns {
		st.conns[rank] = r.conn(rank, 0)
	}
	return r
}

// conn is incarnation inc's control connection of rank.
func (r *coordRig) conn(rank, inc int) *ctlConn {
	for len(r.conns[rank]) <= inc {
		r.conns[rank] = append(r.conns[rank], &ctlConn{})
	}
	return r.conns[rank][inc]
}

// move is one scripted event: what happens, on which incarnation's
// connection, and when (after START).
type move struct {
	what      string // "hb", "done", "fail" (an error DONE), "ready" (a kind out of place), "drop" (the read error), "rejoin" or "tick"
	rank, inc int
	clock     int // a heartbeat's progress
	at        time.Duration
}

func hb(rank, inc, clock int, at time.Duration) move {
	return move{what: "hb", rank: rank, inc: inc, clock: clock, at: at}
}
func done(rank, inc int, at time.Duration) move {
	return move{what: "done", rank: rank, inc: inc, at: at}
}
func drop(rank, inc int, at time.Duration) move {
	return move{what: "drop", rank: rank, inc: inc, at: at}
}
func rejoin(rank, inc int, at time.Duration) move {
	return move{what: "rejoin", rank: rank, inc: inc, at: at}
}
func tick(at time.Duration) move { return move{what: "tick", at: at} }

// event builds the event a move posts. A REJOIN is the first frame of a
// connection accepted after START; every other frame comes from its
// connection's reader.
func (r *coordRig) event(m move) event {
	if m.what == "tick" {
		return event{}
	}
	ev := event{rank: m.rank, conn: r.conn(m.rank, m.inc)}
	switch m.what {
	case "hb":
		ev.f = xport.Frame{Kind: kindHeartbeat, From: int32(m.rank), Clock: int32(m.clock)}
	case "done":
		ev.f = *(&doneInfo{iters: 12}).frame(m.rank)
	case "fail":
		ev.f = xport.Frame{Kind: kindDone, From: int32(m.rank), Seg: -1, Data: []byte("boom")}
	case "ready":
		ev.f = xport.Frame{Kind: kindReady, From: int32(m.rank)}
	case "drop":
		ev.err = net.ErrClosed
	case "rejoin":
		ev.rank, ev.f = -1, xport.Frame{Kind: kindRejoin, From: int32(m.rank), Data: []byte(r.st.fp)}
	default:
		panic("unknown move " + m.what)
	}
	return ev
}

// play steps the moves in order and returns how the run ended: "" while it
// runs on, "end", or the error. Only the last move may end the run.
func (r *coordRig) play(t *testing.T, moves ...move) string {
	t.Helper()
	for i, m := range moves {
		end, err := r.st.step(r.event(m), coordStart.Add(m.at))
		out := ""
		if err != nil {
			out = err.Error()
		} else if end {
			out = "end"
		}
		if i == len(moves)-1 {
			return out
		}
		if out != "" {
			t.Fatalf("run ended at move %d of %d (%+v): %s", i+1, len(moves), m, out)
		}
	}
	return ""
}

// answered reports whether c was sent REJOIN-OK.
func answered(c *ctlConn) bool {
	k := c.sent()
	return len(k) == 1 && k[0] == kindRejoinOK
}

const sec = time.Second

// TestCoordinatorStep covers each rule of the loop with the orderings that
// decide it. Every row fails when its rule is taken out of step.
func TestCoordinatorStep(t *testing.T) {
	everyoneBeatsAt := func(at time.Duration, ranks ...int) []move {
		var ms []move
		for _, r := range ranks {
			ms = append(ms, hb(r, 0, 1, at))
		}
		return ms
	}
	cat := func(parts ...[]move) []move {
		var ms []move
		for _, p := range parts {
			ms = append(ms, p...)
		}
		return ms
	}
	for _, tc := range []struct {
		name            string
		noCrashes       bool // a run without a crash schedule
		moves           []move
		want            string // how the last move ends the run: "", "end" or an error's text
		deaths, rejoins int64
		setup, check    func(t *testing.T, r *coordRig)
	}{
		{name: "DONE, then its connection drops: no death",
			moves: []move{done(0, 0, sec), drop(0, 0, 2*sec), hb(0, 0, 99, 3*sec)},
			check: func(t *testing.T, r *coordRig) {
				if r.st.iter[0] != 0 || r.st.finished.Load() != 1 {
					t.Errorf("after DONE: iter %d, finished %d", r.st.iter[0], r.st.finished.Load())
				}
			}},
		{name: "connection drops, then a DONE on it: one death, no report",
			moves:  []move{drop(1, 0, sec), done(1, 0, 2*sec)},
			deaths: 1,
			check: func(t *testing.T, r *coordRig) {
				if r.st.done[1] || r.st.finished.Load() != 0 || !r.conn(1, 0).closed {
					t.Errorf("done %v, finished %d, closed %v", r.st.done[1], r.st.finished.Load(), r.conn(1, 0).closed)
				}
			}},
		{name: "old connection's error, then the REJOIN: one death",
			moves:  []move{drop(1, 0, sec), rejoin(1, 1, 2*sec)},
			deaths: 1, rejoins: 1,
			check: func(t *testing.T, r *coordRig) {
				if r.st.conns[1] != r.conn(1, 1) || !answered(r.conn(1, 1)) {
					t.Errorf("rejoined connection not installed and answered")
				}
			}},
		{name: "REJOIN, then the old connection's error: one death",
			moves:  []move{rejoin(1, 1, sec), drop(1, 0, 2*sec)},
			deaths: 1, rejoins: 1,
			check: func(t *testing.T, r *coordRig) {
				if r.st.conns[1] != r.conn(1, 1) || !r.conn(1, 0).closed || r.conn(1, 1).closed {
					t.Errorf("the REJOIN did not supersede the old connection")
				}
			}},
		{name: "a second crash's REJOIN supersedes a live connection",
			moves:  []move{drop(2, 0, sec), rejoin(2, 1, 2*sec), rejoin(2, 2, 3*sec), drop(2, 1, 4*sec)},
			deaths: 2, rejoins: 2,
			check: func(t *testing.T, r *coordRig) {
				if r.st.conns[2] != r.conn(2, 2) || !r.conn(2, 1).closed || !answered(r.conn(2, 2)) {
					t.Errorf("the second REJOIN did not supersede the first")
				}
			}},
		{name: "a heartbeat from a superseded connection is ignored",
			moves:  []move{hb(1, 0, 3, sec), rejoin(1, 1, 2*sec), hb(1, 0, 7, 3*sec)},
			deaths: 1, rejoins: 1,
			check: func(t *testing.T, r *coordRig) {
				if r.st.iter[1] != 3 || !r.st.beat[1].Equal(coordStart.Add(2*sec)) {
					t.Errorf("iter %d, beat %v: the stale heartbeat moved them", r.st.iter[1], r.st.beat[1].Sub(coordStart))
				}
			}},
		{name: "a heartbeat exactly at the lease boundary keeps the lease",
			moves: cat(everyoneBeatsAt(10*sec, 0, 1, 3), []move{hb(2, 0, 1, 5*sec), tick(5*sec + leaseTimeout)})},
		{name: "one nanosecond past the lease boundary fails the run naming the rank",
			moves: cat(everyoneBeatsAt(10*sec, 0, 1, 3), []move{hb(2, 0, 1, 5*sec), tick(5*sec + leaseTimeout),
				tick(5*sec + leaseTimeout + 1)}),
			want: "live: worker 2 lease expired after 15.0s of silence"},
		{name: "a tick before an in-flight REJOIN, inside the restart budget",
			moves:  cat([]move{drop(1, 0, sec)}, everyoneBeatsAt(16*sec, 0, 2, 3), []move{tick(30 * sec), rejoin(1, 1, 30*sec+sec/10)}),
			deaths: 1, rejoins: 1},
		{name: "a tick past the restart budget of a REJOIN still in flight fails the run",
			moves:  cat([]move{drop(1, 0, sec)}, everyoneBeatsAt(16*sec, 0, 2, 3), []move{tick(30*sec + sec/5)}),
			deaths: 1,
			want:   "live: worker 1 lease expired after 30.2s of silence"},
		{name: "a REJOIN renews the lease before the next tick",
			moves:  cat([]move{drop(1, 0, sec), rejoin(1, 1, 29*sec)}, everyoneBeatsAt(30*sec, 0, 2, 3), []move{tick(43 * sec)}),
			deaths: 1, rejoins: 1},
		{name: "without a crash schedule no lease is kept", noCrashes: true,
			moves: []move{tick(time.Hour)}},
		{name: "a rank written off by its schedule ends the run last",
			moves:  []move{hb(3, 0, 9, sec), done(0, 0, 2*sec), done(1, 0, 2*sec), done(2, 0, 2*sec), drop(3, 0, 3*sec)},
			deaths: 1, want: "end",
			check: func(t *testing.T, r *coordRig) {
				if !r.st.done[3] || r.st.reports[3].iters != 9 {
					t.Errorf("rank 3 written off as done=%v with %d iterations, want 9", r.st.done[3], r.st.reports[3].iters)
				}
			}},
		{name: "a rank written off by its schedule first, then every DONE",
			moves:  []move{drop(3, 0, sec), done(0, 0, 2*sec), done(1, 0, 2*sec), done(2, 0, 2*sec)},
			deaths: 1, want: "end"},
		{name: "a lost connection without a crash scheduled fails the run",
			moves: []move{drop(0, 0, sec)}, want: "live: worker 0 control connection lost"},
		{name: "an error DONE fails the run naming the rank",
			moves: []move{{what: "fail", rank: 2, at: sec}}, want: "live: worker 2 failed: boom"},
		{name: "an unexpected control kind fails the run naming the rank",
			moves: []move{{what: "ready", rank: 1, at: sec}}, want: "live: worker 1: unexpected control kind 104"},
		{name: "REJOIN for a rank that is done is refused",
			moves: []move{done(1, 0, sec), rejoin(1, 1, 2*sec)},
			check: func(t *testing.T, r *coordRig) { refused(t, r, 1, 1) }},
		{name: "REJOIN for a rank with no crash scheduled is refused",
			moves: []move{rejoin(0, 1, sec)},
			check: func(t *testing.T, r *coordRig) { refused(t, r, 0, 1) }},
		{name: "a REJOIN-OK that cannot be written: a second death",
			moves:  []move{drop(1, 0, sec), rejoin(1, 1, 2*sec)},
			deaths: 2, rejoins: 1,
			setup: func(t *testing.T, r *coordRig) { r.conn(1, 1).Close() },
			check: func(t *testing.T, r *coordRig) {
				if r.st.conns[1] != nil {
					t.Errorf("rank 1 kept a connection it could not answer on")
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coordConfig(t)
			if tc.noCrashes {
				cfg.Faults, cfg.Elastic = nil, false
			}
			r := newCoordRig(cfg)
			if tc.setup != nil {
				tc.setup(t, r)
			}
			if got := r.play(t, tc.moves...); got != tc.want {
				t.Fatalf("run ended with %q, want %q", got, tc.want)
			}
			if d, j := r.st.deaths.Load(), r.st.rejoins.Load(); d != tc.deaths || j != tc.rejoins {
				t.Errorf("deaths %d, rejoins %d; want %d, %d", d, j, tc.deaths, tc.rejoins)
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}

// refused checks that incarnation inc of rank was closed unanswered and
// changed nothing.
func refused(t *testing.T, r *coordRig, rank, inc int) {
	t.Helper()
	c := r.conn(rank, inc)
	if !c.closed || len(c.sent()) != 0 || r.st.conns[rank] == c || r.st.rejoins.Load() != 0 {
		t.Errorf("REJOIN of rank %d admitted: closed %v, sent %v", rank, c.closed, c.sent())
	}
}

// TestCoordinatorRefusesBadRejoins: the first frame of a connection
// accepted after START must be a REJOIN with this run's fingerprint, naming
// a rank of the run; anything else — and a connection lost before it says
// anything — is closed unanswered and changes nothing.
func TestCoordinatorRefusesBadRejoins(t *testing.T) {
	for _, tc := range []struct {
		name string
		ev   func(fp string) event
	}{
		{"another fingerprint", func(fp string) event {
			return event{rank: -1, f: xport.Frame{Kind: kindRejoin, From: 1, Data: []byte(fp + "x")}}
		}},
		{"a rank past the run", func(fp string) event {
			return event{rank: -1, f: xport.Frame{Kind: kindRejoin, From: 4, Data: []byte(fp)}}
		}},
		{"a negative rank", func(fp string) event {
			return event{rank: -1, f: xport.Frame{Kind: kindRejoin, From: -1, Data: []byte(fp)}}
		}},
		{"a heartbeat first", func(fp string) event {
			return event{rank: -1, f: xport.Frame{Kind: kindHeartbeat, From: 1, Data: []byte(fp)}}
		}},
		{"a read error first", func(fp string) event {
			return event{rank: -1, f: xport.Frame{Kind: kindRejoin, From: 1, Data: []byte(fp)}, err: net.ErrClosed}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newCoordRig(coordConfig(t))
			ev := tc.ev(r.st.fp)
			c := r.conn(1, 1)
			ev.conn = c
			if end, err := r.st.step(ev, coordStart.Add(sec)); end || err != nil {
				t.Fatalf("step: end %v, err %v", end, err)
			}
			refused(t, r, 1, 1)
		})
	}
}

// TestCoordinatorExplore draws random interleavings of every rank's events
// from a seed — heartbeats, DONEs, lost connections, REJOINs racing the
// error of the connection they supersede, lease ticks — and checks the
// loop's invariants after every step:
//
//   - each death is counted exactly once, when the incarnation's connection
//     error or its successor's REJOIN arrives, whichever is first;
//   - no frame from a superseded connection, or from a rank already done,
//     changes any state;
//   - the run ends exactly when every rank is done or written off;
//   - every failure names its rank.
//
// A seed that breaks one becomes a row of TestCoordinatorStep.
func TestCoordinatorExplore(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	cfg := coordConfig(t)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if msg := exploreCoordinator(cfg, seed); msg != "" {
			t.Errorf("seed %d: %s", seed, msg)
		}
	}
}

// exploreCoordinator plays one seeded interleaving on coordConfig's run and
// returns the first broken invariant, or "".
func exploreCoordinator(cfg core.Config, seed int64) string {
	rnd := rand.New(rand.NewSource(seed))
	r := newCoordRig(cfg)
	comebacks := []int{0, 1, 2, 0} // per rank; rank 3's one crash writes it off

	// One stream of moves per incarnation, in its connection's order.
	type stream struct {
		rank, inc int
		moves     []move
	}
	var streams []*stream
	clock := make([]int, len(comebacks))
	lastBeat := 0 // rank 3's progress at its write-off
	// A run may carry one fault: rank 0 (never superseded, never done
	// before it) ends with one instead of its DONE, or a late tick lapses
	// every lease.
	fault := []string{"", "", "", "drop", "fail", "ready", "late"}[rnd.Intn(7)]
	for rank, n := range comebacks {
		for inc := 0; inc <= n; inc++ {
			s := &stream{rank: rank, inc: inc}
			if inc > 0 {
				s.moves = append(s.moves, move{what: "rejoin", rank: rank, inc: inc})
			}
			for k := rnd.Intn(4); k > 0; k-- {
				clock[rank]++
				s.moves = append(s.moves, move{what: "hb", rank: rank, inc: inc, clock: clock[rank]})
			}
			last := "drop"
			switch {
			case rank == 3:
				lastBeat = clock[rank]
			case inc == n && rank == 0 && fault != "" && fault != "late":
				last = fault
			case inc == n:
				last = "done"
			}
			s.moves = append(s.moves, move{what: last, rank: rank, inc: inc})
			if last == "done" && rnd.Intn(2) == 0 {
				s.moves = append(s.moves, move{what: "drop", rank: rank, inc: inc})
			}
			streams = append(streams, s)
		}
	}

	// The model: which incarnations' REJOINs and errors have been stepped,
	// and which ranks are done.
	rejoined := map[[2]int]bool{}
	dropped := map[[2]int]bool{}
	finished := make([]bool, len(comebacks))
	var wantDeaths, wantRejoins int64
	now := time.Duration(0)
	lateAt := -1
	if fault == "late" {
		lateAt = rnd.Intn(30)
	}
	view := func() string {
		st := r.st
		v := fmt.Sprintf("%v %v %v %v %d %d %d", st.iter, st.done, st.beat, st.reports,
			st.deaths.Load(), st.rejoins.Load(), st.finished.Load())
		for _, c := range st.conns {
			v += fmt.Sprintf(" %p", c)
		}
		return v
	}
	for stepNo := 0; ; stepNo++ {
		// Incarnation k > 1 exists only once incarnation k-1 was admitted.
		var ready []*stream
		for _, s := range streams {
			if len(s.moves) > 0 && (s.inc <= 1 || rejoined[[2]int{s.rank, s.inc - 1}]) {
				ready = append(ready, s)
			}
		}
		if len(ready) == 0 {
			return "every event stepped and the run never ended"
		}
		now += time.Duration(rnd.Intn(50)) * time.Millisecond
		m := move{what: "tick", at: now}
		var s *stream
		switch {
		case stepNo == lateAt:
			m.at = now + time.Hour
		case rnd.Intn(5) == 0:
		default:
			s = ready[rnd.Intn(len(ready))]
			m, s.moves = s.moves[0], s.moves[1:]
			m.at = now
		}
		key := [2]int{m.rank, m.inc}
		stale := s != nil && m.what != "rejoin" && (rejoined[[2]int{m.rank, m.inc + 1}] || finished[m.rank])
		before := view()
		end, err := r.st.step(r.event(m), coordStart.Add(m.at))

		if stale && view() != before {
			return fmt.Sprintf("step %d: %+v on a superseded or finished connection changed the state", stepNo, m)
		}
		if err != nil {
			var rank int
			if _, e := fmt.Sscanf(err.Error(), "live: worker %d", &rank); e != nil {
				return fmt.Sprintf("step %d: failure names no rank: %v", stepNo, err)
			}
			switch {
			case m.what == "tick" && stepNo == lateAt && !finished[rank]:
			case s != nil && m.rank == 0 && m.what == fault:
			default:
				return fmt.Sprintf("step %d: %+v failed the run: %v", stepNo, m, err)
			}
			return ""
		}
		if m.what == "tick" && stepNo == lateAt {
			return fmt.Sprintf("step %d: a tick an hour late failed nothing", stepNo)
		}
		if s != nil && m.rank == 0 && m.what == fault {
			return fmt.Sprintf("step %d: %s on rank 0 did not fail the run", stepNo, fault)
		}
		if s != nil && !stale {
			switch m.what {
			case "rejoin":
				rejoined[key] = true
				wantRejoins++
				if !dropped[[2]int{m.rank, m.inc - 1}] {
					wantDeaths++
				}
			case "drop":
				dropped[key] = true
				wantDeaths++
				finished[m.rank] = m.rank == 3
			case "done":
				finished[m.rank] = true
			}
		}
		if d, j := r.st.deaths.Load(), r.st.rejoins.Load(); d != wantDeaths || j != wantRejoins {
			return fmt.Sprintf("step %d: %+v left deaths %d, rejoins %d; want %d, %d", stepNo, m, d, j, wantDeaths, wantRejoins)
		}
		all := true
		for _, f := range finished {
			all = all && f
		}
		if end != all {
			return fmt.Sprintf("step %d: %+v: end %v with ranks finished %v", stepNo, m, end, finished)
		}
		if end {
			if got := r.st.reports[3].iters; got != lastBeat {
				return fmt.Sprintf("rank 3 written off at %d iterations, its last heartbeat said %d", got, lastBeat)
			}
			return ""
		}
	}
}

// TestCoordinatorRefusesRejoinAfterTheRun: once coordinate has returned — a
// run that failed, or one that completed — a REJOIN is refused, and no
// goroutine or connection of the coordinator outlives it.
func TestCoordinatorRefusesRejoinAfterTheRun(t *testing.T) {
	cfg := liveConfig(core.ARSGD, 2, 4, 1)
	cfg.Elastic = true
	cfg.Faults = &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, AtIter: 2, Worker: 1, Restart: 0.1}}}
	for _, failed := range []bool{true, false} {
		t.Run(map[bool]string{true: "failed", false: "completed"}[failed], func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			ln, coordErr := startCoordinator(t, &cfg)
			c0, c1 := admit(t, ln, &cfg), admit(t, ln, &cfg)
			started := make(chan error, 2)
			go toStart(c0, addrFrame(0, "127.0.0.1:1"), started)
			go toStart(c1, addrFrame(1, "127.0.0.1:2"), started)
			for i := 0; i < 2; i++ {
				if err := <-started; err != nil {
					t.Fatal(err)
				}
			}
			if failed {
				if err := writeCtl(c0, &xport.Frame{Kind: kindDone, From: 0, Seg: -1, Data: []byte("boom")}); err != nil {
					t.Fatal(err)
				}
				err := within(t, 5*time.Second, coordErr)
				if err == nil || !strings.Contains(err.Error(), "worker 0 failed: boom") {
					t.Fatalf("coordinator: %v, want worker 0's failure", err)
				}
			} else {
				for r, c := range []net.Conn{c0, c1} {
					if err := writeCtl(c, (&doneInfo{iters: 4}).frame(r)); err != nil {
						t.Fatal(err)
					}
				}
				for _, c := range []net.Conn{c0, c1} {
					if _, err := readCtl(c, kindBye); err != nil {
						t.Fatal(err)
					}
				}
				if err := within(t, 5*time.Second, coordErr); err != nil {
					t.Fatalf("coordinator: %v", err)
				}
			}

			c, err := net.Dial("tcp", ln.Addr().String())
			if err == nil {
				err = play(c, step{f: xport.Frame{Kind: kindRejoin, From: 1, Data: []byte(fingerprint(&cfg))}},
					step{want: kindRejoinOK})
				c.Close()
			}
			if err == nil {
				t.Fatal("a REJOIN after the run was answered REJOIN-OK")
			}

			c0.Close()
			c1.Close()
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > baseline {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines outlive the run, %d before it:\n%s",
						runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
				}
				time.Sleep(10 * time.Millisecond)
			}
		})
	}
}
