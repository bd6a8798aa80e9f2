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

// The coordinator's rules, from the first HELLO to the last DONE, live in
// runState.step, which takes its time as an argument. These tests drive it with scripted events at
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
func (c *ctlConn) SetReadDeadline(time.Time) error  { return nil }
func (c *ctlConn) LocalAddr() net.Addr              { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 9901} }

// frames lists the frames written to c.
func (c *ctlConn) frames() []xport.Frame {
	var fs []xport.Frame
	for r := bytes.NewReader(c.out.Bytes()); ; {
		f, err := xport.ReadFrame(r, xport.MaxFrameBytes)
		if err != nil {
			return fs
		}
		fs = append(fs, f)
	}
}

// sent lists the kinds of the frames written to c.
func (c *ctlConn) sent() []uint16 {
	var kinds []uint16
	for _, f := range c.frames() {
		kinds = append(kinds, f.Kind)
	}
	return kinds
}

// count is how many frames of kind were written to c.
func (c *ctlConn) count(kind uint16) int {
	n := 0
	for _, k := range c.sent() {
		if k == kind {
			n++
		}
	}
	return n
}

// assigned is the rank c was sent in ASSIGN, or -1.
func (c *ctlConn) assigned() int {
	for _, f := range c.frames() {
		if f.Kind == kindAssign {
			return int(f.From)
		}
	}
	return -1
}

// coordStart is the synthetic clock's origin: the coordinator's entry, and
// START for a rig that admits every rank at once.
var coordStart = time.Unix(1000, 0)

// coordRig holds a runState and the control connections of every
// incarnation of every rank: conns[r][0] is the connection rank r was
// admitted on, and conns[r][k] the connection of its k-th restart. Until
// START, moves name connections, not ranks: conns[l][0] is the l-th
// connection the script opens, whatever rank its HELLO is given. At START
// the rig files each under the rank it was assigned.
type coordRig struct {
	st    *runState
	conns [][]*ctlConn
	seen  map[*ctlConn]bool // the connections that have posted an event
}

// newCoordRig is cfg's coordinator at its entry, with no worker admitted.
func newCoordRig(cfg core.Config) *coordRig {
	st := newRunState(&cfg, nil, coordStart)
	if cfg.Algo.Centralized() {
		st.psPort = "9"
	}
	return &coordRig{st: st, seen: map[*ctlConn]bool{}}
}

// admittedRig is cfg's coordinator just past START, each connection
// conns[r][0] admitted as rank r, in rank order, at coordStart.
func admittedRig(t testing.TB, cfg core.Config) *coordRig {
	r := newCoordRig(cfg)
	for _, what := range []string{"hello", "addr", "ready"} {
		for rank := 0; rank < cfg.Workers; rank++ {
			if end, err := r.step(move{what: what, rank: rank}); end || err != nil {
				t.Fatalf("admission: %s of %d: end %v, err %v", what, rank, end, err)
			}
		}
	}
	if !r.st.start.Equal(coordStart) {
		t.Fatalf("START at %v, want the last READY's time", r.st.start)
	}
	return r
}

// conn is incarnation inc's control connection of rank.
func (r *coordRig) conn(rank, inc int) *ctlConn {
	for len(r.conns) <= rank {
		r.conns = append(r.conns, nil)
	}
	for len(r.conns[rank]) <= inc {
		r.conns[rank] = append(r.conns[rank], &ctlConn{})
	}
	return r.conns[rank][inc]
}

// rerank files every admitted connection under the rank it was assigned and
// forgets the refused ones.
func (r *coordRig) rerank() {
	ranked := make([][]*ctlConn, len(r.st.conns))
	for _, cs := range r.conns {
		if len(cs) > 0 && cs[0].assigned() >= 0 {
			ranked[cs[0].assigned()] = cs
		}
	}
	r.conns = ranked
}

// move is one scripted event: what happens, on which incarnation's
// connection, and when (after coordStart).
type move struct {
	what      string // "hello", "stranger" (another fingerprint), "addr", "noaddr" (an empty one), "ready" (also out of place), "hb", "done", "fail" (an error DONE), "drop" (the read error), "rejoin" or "tick"
	rank, inc int
	at        time.Duration
	fails     bool // in an explored run, the move that must fail it
}

func hello(conn int, at time.Duration) move { return move{what: "hello", rank: conn, at: at} }
func hb(rank, inc int, at time.Duration) move {
	return move{what: "hb", rank: rank, inc: inc, at: at}
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

// event builds the event a move posts. A connection's first event is its
// reader's first read, the one that asks for a rank. The frames a worker
// sends after ASSIGN name the rank it was assigned.
func (r *coordRig) event(m move) event {
	if m.what == "tick" {
		return event{}
	}
	c := r.conn(m.rank, m.inc)
	ev := event{conn: c, first: !r.seen[c]}
	r.seen[c] = true
	switch m.what {
	case "hello":
		ev.f = xport.Frame{Kind: kindHello, Data: []byte(r.st.fp)}
	case "stranger":
		ev.f = xport.Frame{Kind: kindHello, Data: []byte(r.st.fp + "x")}
	case "addr":
		ev.f = addrFrame(int32(c.assigned()), fmt.Sprintf("127.0.0.1:%d", 100+c.assigned()))
	case "noaddr":
		ev.f = addrFrame(int32(c.assigned()), "")
	case "ready":
		ev.f = xport.Frame{Kind: kindReady, From: int32(m.rank)}
	case "hb":
		ev.f = xport.Frame{Kind: kindHeartbeat, From: int32(m.rank)}
	case "done":
		ev.f = *(&doneInfo{iters: 12}).frame(m.rank)
	case "fail":
		ev.f = xport.Frame{Kind: kindDone, From: int32(m.rank), Seg: -1, Data: []byte("boom")}
	case "drop":
		ev.err = net.ErrClosed
	case "rejoin":
		ev.f = xport.Frame{Kind: kindRejoin, From: int32(m.rank), Data: []byte(r.st.fp)}
	default:
		panic("unknown move " + m.what)
	}
	return ev
}

// step steps one move, and files the connections under their ranks at START.
func (r *coordRig) step(m move) (bool, error) {
	admitting := r.st.start.IsZero()
	end, err := r.st.step(r.event(m), coordStart.Add(m.at))
	if admitting && !r.st.start.IsZero() {
		r.rerank()
	}
	return end, err
}

// play steps the moves in order and returns how the run ended: "" while it
// runs on, "end", or the error. Only the last move may end the run.
func (r *coordRig) play(t *testing.T, moves ...move) string {
	t.Helper()
	for i, m := range moves {
		end, err := r.step(m)
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

// view prints every piece of the coordinator's state, so two views differ
// exactly when a step changed something.
func (r *coordRig) view() string {
	st := r.st
	v := fmt.Sprintf("%v %v %v %v %v %v %v %v %d %d %d", st.owe, st.addrs, st.mesh, st.lease, st.start,
		st.done, st.beat, st.reports, st.deaths.Load(), st.rejoins.Load(), st.finished.Load())
	for _, c := range st.conns {
		v += fmt.Sprintf(" %p", c)
	}
	return v
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
			ms = append(ms, hb(r, 0, at))
		}
		return ms
	}
	// each is one admission frame per connection, all at time at.
	each := func(what string, at time.Duration, conns ...int) []move {
		var ms []move
		for _, c := range conns {
			ms = append(ms, move{what: what, rank: c, at: at})
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
	all := []int{0, 1, 2, 3}
	for _, tc := range []struct {
		name            string
		noCrashes       bool // a run without a crash schedule
		admitting       bool // moves start at the coordinator's entry, not at START
		moves           []move
		want            string                   // how the last move ends the run: "", "end" or an error's text
		wantFor         func(r *coordRig) string // the want of a row whose error quotes the rig's state
		refused         bool                     // the last move's connection is closed unanswered, and nothing changes
		deaths, rejoins int64
		setup, check    func(t *testing.T, r *coordRig)
	}{
		{name: "HELLOs take ranks in the order step sees them", admitting: true,
			moves: []move{hello(2, 0), hello(0, sec), hello(3, sec), hello(1, 2*sec)},
			check: func(t *testing.T, r *coordRig) {
				for conn, rank := range []int{1, 3, 0, 2} {
					c := r.conn(conn, 0)
					if fs := c.frames(); len(fs) != 1 || fs[0].Kind != kindAssign || int(fs[0].From) != rank || fs[0].Clock != 5 {
						t.Errorf("connection %d was sent %+v, want ASSIGN{%d, 5}", conn, fs, rank)
					}
				}
				if !r.st.lease.Equal(coordStart.Add(2 * sec)) {
					t.Errorf("lease at %v, want the last HELLO's time", r.st.lease.Sub(coordStart))
				}
			}},
		{name: "no PEERS before the last ADDR", admitting: true,
			moves: cat(each("hello", 0, all...), each("addr", sec, 3, 0, 1)),
			check: func(t *testing.T, r *coordRig) {
				for rank := range all {
					if n := r.conn(rank, 0).count(kindPeers); n != 0 {
						t.Errorf("rank %d was sent PEERS before rank 2's ADDR", rank)
					}
				}
			}},
		{name: "the last ADDR sends every rank PEERS, naming the PS where the worker reached the coordinator", admitting: true,
			moves: cat(each("hello", 0, all...), each("addr", sec, 3, 0, 1, 2)),
			check: func(t *testing.T, r *coordRig) {
				want := "127.0.0.1:100,127.0.0.1:101,127.0.0.1:102,127.0.0.1:103,127.0.0.1:9"
				for rank := range all {
					if fs := r.conn(rank, 0).frames(); len(fs) != 2 || fs[1].Kind != kindPeers || string(fs[1].Data) != want {
						t.Errorf("rank %d was sent %+v, want ASSIGN, then PEERS %s", rank, fs, want)
					}
				}
			}},
		{name: "no START before the last READY", admitting: true,
			moves: cat(each("hello", 0, all...), each("addr", 0, all...), each("ready", sec, 0, 1, 3)),
			check: func(t *testing.T, r *coordRig) {
				for rank := range all {
					if !r.st.start.IsZero() || r.conn(rank, 0).count(kindStart) != 0 {
						t.Errorf("rank %d was sent START before rank 2's READY", rank)
					}
				}
			}},
		{name: "the last READY stamps START with its time and sends it to every rank", admitting: true,
			moves: cat(each("hello", 0, all...), each("addr", 0, all...), each("ready", sec, 0, 1, 3), each("ready", 5*sec, 2)),
			check: func(t *testing.T, r *coordRig) {
				if !r.st.start.Equal(coordStart.Add(5 * sec)) {
					t.Errorf("START at %v, want the last READY's 5s", r.st.start.Sub(coordStart))
				}
				for rank := range all {
					if k := r.conn(rank, 0).sent(); len(k) != 3 || k[2] != kindStart {
						t.Errorf("rank %d was sent %v, want ASSIGN, PEERS, START", rank, k)
					}
				}
			}},
		{name: "a HELLO with another fingerprint fails the run naming the rank it would take", admitting: true,
			moves: []move{hello(0, 0), {what: "stranger", rank: 1, at: sec}},
			wantFor: func(r *coordRig) string {
				return fmt.Sprintf("live: worker 1 config fingerprint %q does not match coordinator's %q", r.st.fp+"x", r.st.fp)
			}},
		{name: "a second HELLO on an admitted connection fails the run", admitting: true,
			moves: []move{hello(0, 0), hello(1, 0), hello(1, sec)},
			want:  "live: worker 1: unexpected control kind 100"},
		{name: "a READY before PEERS fails the run", admitting: true,
			moves: cat(each("hello", 0, 0, 1), each("addr", sec, 0, 1), each("ready", 2*sec, 1)),
			want:  "live: worker 1: unexpected control kind 104"},
		{name: "two bad ADDRs: the run fails on rank 0's, which came last", admitting: true,
			moves: cat(each("hello", 0, all...), each("noaddr", sec, 1), each("addr", sec, 2, 3), each("noaddr", 2*sec, 0)),
			want:  `live: addr from worker 0: mesh address ""`},
		{name: "a HELLO past the W-th is closed unanswered", admitting: true,
			moves: cat(each("hello", 0, all...), []move{hello(4, sec)}), refused: true},
		{name: "a HELLO after START is closed unanswered",
			moves: []move{hello(4, sec)}, refused: true},
		{name: "a REJOIN before START is closed unanswered", admitting: true,
			moves: []move{hello(0, 0), hello(1, 0), rejoin(1, 1, sec)}, refused: true},
		{name: "a read error before a connection's first frame closes it unanswered", admitting: true,
			moves: []move{hello(0, 0), drop(1, 0, sec)}, refused: true},
		{name: "a connection lost before START fails the run, crash schedule or not", admitting: true,
			moves: cat(each("hello", 0, 0, 1), []move{drop(1, 0, sec)}),
			want:  "live: worker 1 control connection lost"},
		{name: "an admission frame exactly at the admission lease boundary keeps the lease", admitting: true,
			moves: cat(each("hello", 0, 0, 1), each("addr", 10*sec, 1), []move{tick(10*sec + recvTimeout)})},
		{name: "one nanosecond past the admission lease fails the run naming the rank that owes ADDR", admitting: true,
			moves: cat(each("hello", 0, 0, 1), each("addr", 10*sec, 1), []move{tick(10*sec + recvTimeout + 1)}),
			want:  "live: worker 0 owes ADDR after 60.0s of silence"},
		{name: "past the admission lease with every READY but one", admitting: true,
			moves: cat(each("hello", 0, all...), each("addr", 0, all...), each("ready", 0, 0, 1, 3), []move{tick(recvTimeout + 1)}),
			want:  "live: worker 2 owes READY after 60.0s of silence"},
		{name: "past the admission lease with workers missing", admitting: true,
			moves: cat(each("hello", 0, 0, 1), each("addr", 0, 0, 1), []move{tick(recvTimeout + 1)}),
			want:  "live: worker 2 never connected (2 of 4 workers missing) after 60.0s of silence"},
		{name: "a refused connection does not renew the admission lease", admitting: true,
			moves: cat(each("hello", 0, all...), []move{hello(4, 30*sec), tick(recvTimeout + 1)}),
			want:  "live: worker 0 owes ADDR after 60.0s of silence"},
		{name: "DONE, then its connection drops: no death",
			moves: []move{done(0, 0, sec), drop(0, 0, 2*sec), hb(0, 0, 3*sec)},
			check: func(t *testing.T, r *coordRig) {
				if !r.st.beat[0].IsZero() || r.st.finished.Load() != 1 {
					t.Errorf("after DONE: beat %v, finished %d", r.st.beat[0].Sub(coordStart), r.st.finished.Load())
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
			moves:  []move{hb(1, 0, sec), rejoin(1, 1, 2*sec), hb(1, 0, 3*sec)},
			deaths: 1, rejoins: 1,
			check: func(t *testing.T, r *coordRig) {
				if !r.st.beat[1].Equal(coordStart.Add(2 * sec)) {
					t.Errorf("beat %v: the stale heartbeat moved it", r.st.beat[1].Sub(coordStart))
				}
			}},
		{name: "a heartbeat exactly at the lease boundary keeps the lease",
			moves: cat(everyoneBeatsAt(10*sec, 0, 1, 3), []move{hb(2, 0, 5*sec), tick(5*sec + leaseTimeout)})},
		{name: "one nanosecond past the lease boundary fails the run naming the rank",
			moves: cat(everyoneBeatsAt(10*sec, 0, 1, 3), []move{hb(2, 0, 5*sec), tick(5*sec + leaseTimeout),
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
			moves:  []move{hb(3, 0, sec), done(0, 0, 2*sec), done(1, 0, 2*sec), done(2, 0, 2*sec), drop(3, 0, 3*sec)},
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
			var r *coordRig
			if tc.admitting {
				r = newCoordRig(cfg)
			} else {
				r = admittedRig(t, cfg)
			}
			if tc.setup != nil {
				tc.setup(t, r)
			}
			moves, before := tc.moves, ""
			if tc.wantFor != nil {
				tc.want = tc.wantFor(r)
			}
			if tc.refused {
				r.play(t, moves[:len(moves)-1]...)
				moves, before = moves[len(moves)-1:], r.view()
			}
			if got := r.play(t, moves...); got != tc.want {
				t.Fatalf("run ended with %q, want %q", got, tc.want)
			}
			if tc.refused {
				last := moves[0]
				c := r.conn(last.rank, last.inc)
				if !c.closed || len(c.sent()) != 0 || r.view() != before {
					t.Errorf("%+v admitted: closed %v, sent %v, state changed %v", last, c.closed, c.sent(), r.view() != before)
				}
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
			return event{first: true, f: xport.Frame{Kind: kindRejoin, From: 1, Data: []byte(fp + "x")}}
		}},
		{"a rank past the run", func(fp string) event {
			return event{first: true, f: xport.Frame{Kind: kindRejoin, From: 4, Data: []byte(fp)}}
		}},
		{"a negative rank", func(fp string) event {
			return event{first: true, f: xport.Frame{Kind: kindRejoin, From: -1, Data: []byte(fp)}}
		}},
		{"a heartbeat first", func(fp string) event {
			return event{first: true, f: xport.Frame{Kind: kindHeartbeat, From: 1, Data: []byte(fp)}}
		}},
		{"a read error first", func(fp string) event {
			return event{first: true, f: xport.Frame{Kind: kindRejoin, From: 1, Data: []byte(fp)}, err: net.ErrClosed}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := admittedRig(t, coordConfig(t))
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

// TestCoordinatorExplore draws random interleavings of every connection's
// events from a seed — each worker's HELLO, ADDR and READY, HELLOs past the
// W-th and after START, then heartbeats, DONEs, lost connections, REJOINs
// racing the error of the connection they supersede, lease ticks — and
// checks the loop's invariants after every step:
//
//   - ranks are dense, in the order step sees HELLOs;
//   - PEERS reaches each rank once, after every ADDR, and START each rank
//     once, after every READY;
//   - a refused connection is closed unanswered and changes no state;
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
	W := cfg.Workers
	comebacks := []int{0, 1, 2, 0} // per rank; rank 3's one crash writes it off

	// One stream of moves per connection, in its order: the admission
	// connections (conns[l][0] until START), W workers' and two more, each a
	// HELLO; then every incarnation of every rank.
	type stream struct {
		rank, inc int
		admission bool
		moves     []move
	}
	var streams []*stream
	// A run may carry one fault: before START, one worker's connection is
	// lost or sends READY before its ADDR; after it, rank 0 (never
	// superseded, never done before it) ends with one instead of its DONE;
	// or a late tick lapses a lease.
	fault := []string{"", "", "", "drop", "fail", "ready", "late", "lost", "early"}[rnd.Intn(9)]
	lobby := make([]*ctlConn, W+2)
	for l := range lobby {
		lobby[l] = r.conn(l, 0)
		s := &stream{rank: l, admission: true, moves: []move{{what: "hello", rank: l}}}
		if l < W {
			s.moves = append(s.moves, move{what: "addr", rank: l}, move{what: "ready", rank: l})
		}
		streams = append(streams, s)
	}
	if faulty := streams[rnd.Intn(W)]; fault == "lost" || fault == "early" {
		m, at := move{what: "drop", rank: faulty.rank, fails: true}, 1+rnd.Intn(2)
		if fault == "early" {
			m.what, at = "ready", 1
		}
		faulty.moves = append(faulty.moves[:at], append([]move{m}, faulty.moves[at:]...)...)
	}
	for rank, n := range comebacks {
		for inc := 0; inc <= n; inc++ {
			s := &stream{rank: rank, inc: inc}
			if inc > 0 {
				s.moves = append(s.moves, move{what: "rejoin", rank: rank, inc: inc})
			}
			for k := rnd.Intn(4); k > 0; k-- {
				s.moves = append(s.moves, move{what: "hb", rank: rank, inc: inc})
			}
			last := move{what: "drop", rank: rank, inc: inc}
			switch {
			case rank == 3:
			case inc == n && rank == 0 && (fault == "drop" || fault == "fail" || fault == "ready"):
				last.what, last.fails = fault, true
			case inc == n:
				last.what = "done"
			}
			s.moves = append(s.moves, last)
			if last.what == "done" && rnd.Intn(2) == 0 {
				s.moves = append(s.moves, move{what: "drop", rank: rank, inc: inc})
			}
			streams = append(streams, s)
		}
	}

	// The model: how many HELLOs, ADDRs and READYs have been stepped, which
	// incarnations' REJOINs and errors, and which ranks are done.
	helloed, addrs, readies := 0, 0, 0
	rejoined := map[[2]int]bool{}
	dropped := map[[2]int]bool{}
	finished := make([]bool, len(comebacks))
	var wantDeaths, wantRejoins int64
	now := time.Duration(0)
	lateAt := -1
	if fault == "late" {
		lateAt = rnd.Intn(40)
	}
	// A worker sends ADDR once it has its ASSIGN, READY once it has PEERS;
	// a HELLO past the W-th comes once W were admitted. Nothing after START
	// comes before it, and incarnation k > 1 exists only once incarnation
	// k-1 was admitted.
	eligible := func(s *stream) bool {
		m := s.moves[0]
		switch {
		case !s.admission:
			return !r.st.start.IsZero() && (s.inc <= 1 || rejoined[[2]int{s.rank, s.inc - 1}])
		case m.what == "hello":
			return s.rank < W || helloed == W
		case m.fails:
			return true
		case m.what == "addr":
			return lobby[s.rank].count(kindAssign) == 1
		}
		return lobby[s.rank].count(kindPeers) == 1
	}
	once := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for stepNo := 0; ; stepNo++ {
		var ready []*stream
		for _, s := range streams {
			if len(s.moves) > 0 && eligible(s) {
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
		var c *ctlConn
		if s != nil {
			c = r.conn(m.rank, m.inc)
		}
		key := [2]int{m.rank, m.inc}
		stale := s != nil && !s.admission && m.what != "rejoin" && (rejoined[[2]int{m.rank, m.inc + 1}] || finished[m.rank])
		refuse := s != nil && s.admission && m.rank >= W
		before := r.view()
		end, err := r.step(m)

		if (stale || refuse) && r.view() != before {
			return fmt.Sprintf("step %d: %+v on a refused, superseded or finished connection changed the state", stepNo, m)
		}
		if refuse && (!c.closed || len(c.sent()) != 0) {
			return fmt.Sprintf("step %d: HELLO past the W-th or after START: closed %v, sent %v", stepNo, c.closed, c.sent())
		}
		if err != nil {
			var rank int
			if _, e := fmt.Sscanf(err.Error(), "live: worker %d", &rank); e != nil {
				return fmt.Sprintf("step %d: failure names no rank: %v", stepNo, err)
			}
			switch {
			case m.what == "tick" && stepNo == lateAt && !finished[rank]:
			case m.fails && s.admission && rank == c.assigned():
			case m.fails && !s.admission && rank == m.rank:
			default:
				return fmt.Sprintf("step %d: %+v failed the run: %v", stepNo, m, err)
			}
			return ""
		}
		if m.what == "tick" && stepNo == lateAt {
			return fmt.Sprintf("step %d: a tick an hour late failed nothing", stepNo)
		}
		if m.fails {
			return fmt.Sprintf("step %d: %+v did not fail the run", stepNo, m)
		}
		if s != nil && s.admission && !refuse {
			switch m.what {
			case "hello":
				if got := c.assigned(); got != helloed {
					return fmt.Sprintf("step %d: HELLO number %d was given rank %d", stepNo, helloed, got)
				}
				helloed++
			case "addr":
				addrs++
			case "ready":
				readies++
			}
		}
		for l, c := range lobby[:W] {
			if p, st := c.count(kindPeers), c.count(kindStart); p != once(addrs == W) || st != once(readies == W) {
				return fmt.Sprintf("step %d: connection %d was sent %d PEERS and %d START after %d ADDRs and %d READYs",
					stepNo, l, p, st, addrs, readies)
			}
		}
		if s != nil && !s.admission && !stale {
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
			if got := r.st.reports[3].iters; got != 9 {
				return fmt.Sprintf("rank 3 written off at %d iterations, its schedule ran 9", got)
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
