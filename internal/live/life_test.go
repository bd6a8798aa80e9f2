package live

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/xport"
)

// A worker rank's rules, from HELLO to BYE, live in life.step, which takes
// its time as an argument. These tests drive it with scripted events at
// synthetic times: the control connections are coordinator_test.go's
// ctlConns, handed out by the life's dial, and no poster runs — no reader,
// no training — so the test posts what they would.

// lifeStart is the synthetic clock's origin, the life's first restart time.
var lifeStart = time.Unix(2000, 0)

// lifeRig holds a life of coordConfig's run, or of cfg's, and every control
// connection it dialed, in order: conns[k] is incarnation k's.
type lifeRig struct {
	l       *life
	conns   []*ctlConn
	spawned int // posters the life started: readers and trainings
}

// newLifeRig is a life that starts dead at lifeStart, as RunWorker's does
// (rank -1) or as RunWorkerRejoin's does (rank >= 0).
func newLifeRig(t testing.TB, cfg core.Config, rank int, opts ...Option) *lifeRig {
	r := &lifeRig{}
	r.l = newLife(&cfg, buildOptions(&cfg, opts, 1), "", rank, "127.0.0.1:0")
	r.l.restart = lifeStart
	r.l.dial = func() (net.Conn, error) {
		c := &ctlConn{}
		r.conns = append(r.conns, c)
		return c, nil
	}
	r.l.spawn = func(func()) { r.spawned++ }
	t.Cleanup(r.l.close)
	return r
}

// lmove is one scripted event: what happens, on which incarnation's
// connection, and when (after lifeStart).
type lmove struct {
	what string // "assign", "peers", "start", "rejoinok", "bye", "ready" (never sent to a worker), "drop" (the read error), "tick", "done" (training ended), "death" or "fail" (training failed)
	inc  int
	rank int // the rank ASSIGN gives
	it   int // a death's iteration
	at   time.Duration
}

// event builds the event a move posts.
func (r *lifeRig) event(m lmove) event {
	table := []byte(strings.Repeat("127.0.0.1:0,", meshSize(r.l.cfg)-1) + "127.0.0.1:0")
	var f xport.Frame
	switch m.what {
	case "tick":
		return event{}
	case "done":
		return event{trained: true}
	case "death":
		return event{trained: true, err: deathErr{it: m.it}}
	case "fail":
		return event{trained: true, err: errors.New("boom")}
	case "drop":
		return event{conn: r.conns[m.inc], err: net.ErrClosed}
	case "assign":
		f = xport.Frame{Kind: kindAssign, From: int32(m.rank), Clock: int32(meshSize(r.l.cfg))}
	case "peers":
		f = xport.Frame{Kind: kindPeers, Data: table}
	case "start":
		f = xport.Frame{Kind: kindStart}
	case "rejoinok":
		f = xport.Frame{Kind: kindRejoinOK, Aux: 1.5, Data: table}
	case "bye":
		f = xport.Frame{Kind: kindBye}
	case "ready":
		f = xport.Frame{Kind: kindReady}
	default:
		panic("unknown move " + m.what)
	}
	return event{conn: r.conns[m.inc], f: f}
}

// play steps the moves in order and returns how the life ended: "" while it
// runs on, "end", or the error. Only the last move may end it.
func (r *lifeRig) play(t *testing.T, moves ...lmove) string {
	t.Helper()
	for i, m := range moves {
		end, err := r.l.step(r.event(m), lifeStart.Add(m.at))
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
			t.Fatalf("life ended at move %d of %d (%+v): %s", i+1, len(moves), m, out)
		}
	}
	return ""
}

// view prints every piece of the life's state and what it wrote, so two
// views differ exactly when a step changed something.
func (r *lifeRig) view() string {
	l := r.l
	v := fmt.Sprintf("%d %p %d %v %v %d %p %p %d %+v %d", l.rank, l.conn, l.want, l.peers, l.restart, l.next,
		l.mesh, l.w, l.ran, l.prev, r.spawned)
	for _, c := range r.conns {
		v += fmt.Sprintf(" %v %v", c.closed, c.sent())
	}
	return v
}

// admitted is the moves that admit the first incarnation as rank: the tick
// at lifeStart that writes HELLO, then ASSIGN, PEERS and START.
func admitted(rank int) []lmove {
	return []lmove{{what: "tick"}, {what: "assign", rank: rank}, {what: "peers"}, {what: "start"}}
}

// TestWorkerLifeStep covers each rule of the worker's loop with the
// orderings that decide it. Every row fails when its rule is taken out of
// step.
func TestWorkerLifeStep(t *testing.T) {
	ms := time.Millisecond
	cat := func(parts ...[]lmove) []lmove { return slices.Concat(parts...) }
	dead := cat(admitted(1), []lmove{{what: "death", it: 4, at: sec}})
	for _, tc := range []struct {
		name      string
		noCrashes bool // a run without a crash schedule
		exit      bool // WithExitOnDeath
		relaunch  bool // a life that starts dead with its rank, as RunWorkerRejoin's
		moves     []lmove
		before    func(r *lifeRig) // runs before the last move
		want      string           // how the last move ends the life: "", "end" or an error's text
		unchanged bool             // the last move changes nothing
		check     func(t *testing.T, r *lifeRig)
	}{
		{name: "a tick at the first restart time dials and writes HELLO with the fingerprint",
			moves: []lmove{{what: "tick"}},
			check: func(t *testing.T, r *lifeRig) {
				fs := r.conns[0].frames()
				if len(fs) != 1 || fs[0].Kind != kindHello || string(fs[0].Data) != fingerprint(r.l.cfg) || r.l.want != kindAssign || r.spawned != 1 {
					t.Errorf("wrote %+v, waits for %d, %d posters; want HELLO, ASSIGN and a reader", fs, r.l.want, r.spawned)
				}
			}},
		{name: "ASSIGN takes the rank, attaches the mesh and writes its address in ADDR",
			moves: []lmove{{what: "tick"}, {what: "assign", rank: 1}},
			check: func(t *testing.T, r *lifeRig) {
				fs := r.conns[0].frames()
				if r.l.rank != 1 || r.l.mesh == nil || len(fs) != 2 || fs[1].Kind != kindAddr || fs[1].From != 1 ||
					string(fs[1].Data) != r.l.mesh.Addr() || r.l.want != kindPeers {
					t.Errorf("rank %d, wrote %+v, waits for %d; want rank 1, ADDR of its mesh, PEERS", r.l.rank, fs, r.l.want)
				}
			}},
		{name: "PEERS keeps the table and writes READY",
			moves: []lmove{{what: "tick"}, {what: "assign", rank: 1}, {what: "peers"}},
			check: func(t *testing.T, r *lifeRig) {
				if k := r.conns[0].sent(); len(k) != 3 || k[2] != kindReady || len(r.l.peers) != 5 || r.l.want != kindStart {
					t.Errorf("wrote %v, peers %v, waits for %d; want READY, the table, START", k, r.l.peers, r.l.want)
				}
			}},
		{name: "START starts training and writes nothing",
			moves: admitted(1),
			check: func(t *testing.T, r *lifeRig) {
				if k := r.conns[0].sent(); len(k) != 3 || r.l.want != 0 || r.spawned != 2 {
					t.Errorf("wrote %v, waits for %d, %d posters; want HELLO, ADDR, READY, training", k, r.l.want, r.spawned)
				}
			}},
		{name: "a PEERS before ASSIGN fails the worker",
			moves: []lmove{{what: "tick"}, {what: "peers"}},
			want:  "live: assign: control kind 103 out of turn"},
		{name: "a frame out of turn fails the worker naming its rank and the frame it waits for",
			moves: []lmove{{what: "tick"}, {what: "assign", rank: 1}, {what: "start"}},
			want:  "live: worker 1 peers: control kind 105 out of turn"},
		{name: "a frame while it trains fails the worker",
			moves: cat(admitted(1), []lmove{{what: "ready"}}),
			want:  "live: worker 1 training: control kind 104 out of turn"},
		{name: "a BYE before DONE fails the worker",
			moves: cat(admitted(1), []lmove{{what: "bye"}}),
			want:  "live: worker 1 training: control kind 107 out of turn"},
		{name: "a lost control connection fails the worker naming its rank and the frame it waits for",
			moves: []lmove{{what: "tick"}, {what: "assign", rank: 1}, {what: "peers"}, {what: "drop"}},
			want:  "live: worker 1 start: control connection lost: " + net.ErrClosed.Error()},
		{name: "a tick while it trains under a crash schedule writes HEARTBEAT",
			moves: cat(admitted(1), []lmove{{what: "tick", at: sec}, {what: "tick", at: 2 * sec}}),
			check: func(t *testing.T, r *lifeRig) {
				if n := r.conns[0].count(kindHeartbeat); n != 2 {
					t.Errorf("%d HEARTBEATs, want 2", n)
				}
			}},
		{name: "a tick while it trains without a crash schedule writes nothing", noCrashes: true,
			moves: cat(admitted(1), []lmove{{what: "tick", at: sec}}), unchanged: true},
		{name: "a tick while it waits for PEERS writes nothing",
			moves: []lmove{{what: "tick"}, {what: "assign", rank: 1}, {what: "tick", at: sec}}, unchanged: true},
		{name: "training's end writes DONE with every incarnation's counters and waits for BYE",
			moves:  cat(admitted(1), []lmove{{what: "done", at: sec}}),
			before: func(r *lifeRig) { r.l.w.iters, r.l.ran = 8, 3 },
			check: func(t *testing.T, r *lifeRig) {
				fs := r.conns[0].frames()
				d, err := parseDone(fs[len(fs)-1])
				if err != nil || fs[len(fs)-1].Kind != kindDone || d.iters != 11 || r.l.want != kindBye {
					t.Errorf("wrote %+v (%v), waits for %d; want DONE of 3+8 iterations, BYE", d, err, r.l.want)
				}
			}},
		{name: "a failed training writes a failed DONE and fails the worker",
			moves: cat(admitted(1), []lmove{{what: "fail", at: sec}}),
			want:  "boom",
			check: func(t *testing.T, r *lifeRig) {
				fs := r.conns[0].frames()
				if last := fs[len(fs)-1]; last.Kind != kindDone || last.Seg != -1 || string(last.Data) != "boom" {
					t.Errorf("wrote %+v, want a failed DONE", last)
				}
			}},
		{name: "BYE releases the tail and ends the life",
			moves: cat(admitted(1), []lmove{{what: "done", at: sec}, {what: "bye", at: 2 * sec}}),
			want:  "end",
			check: func(t *testing.T, r *lifeRig) {
				select {
				case <-r.l.bye:
				default:
					t.Error("BYE did not release the tail")
				}
			}},
		{name: "a death tears the incarnation down and sets its restart time",
			moves: dead,
			check: func(t *testing.T, r *lifeRig) {
				if !r.conns[0].closed || r.l.conn != nil || r.l.mesh != nil || r.l.next != 5 ||
					!r.l.restart.Equal(lifeStart.Add(sec+100*ms)) {
					t.Errorf("closed %v, conn %v, mesh %v, next %d, restart %v", r.conns[0].closed, r.l.conn,
						r.l.mesh, r.l.next, r.l.restart.Sub(lifeStart))
				}
			}},
		{name: "a death under WithExitOnDeath ends the worker with ErrScheduledDeath", exit: true,
			moves: dead, want: ErrScheduledDeath.Error()},
		{name: "a death the schedule never revives from ends the life",
			moves: cat(admitted(3), []lmove{{what: "death", it: 10, at: sec}}), want: "end"},
		{name: "a tick just before the restart time writes nothing",
			moves: cat(dead, []lmove{{what: "tick", at: sec + 100*ms - 1}}), unchanged: true},
		{name: "a tick at the restart time dials back and writes REJOIN",
			moves: cat(dead, []lmove{{what: "tick", at: sec + 100*ms}}),
			check: func(t *testing.T, r *lifeRig) {
				fs := r.conns[1].frames()
				if len(r.conns) != 2 || len(fs) != 1 || fs[0].Kind != kindRejoin || fs[0].From != 1 ||
					string(fs[0].Data) != fingerprint(r.l.cfg) || r.l.want != kindRejoinOK || !r.l.restart.IsZero() {
					t.Errorf("wrote %+v, waits for %d", fs, r.l.want)
				}
			}},
		{name: "a tick past the restart time dials back once",
			moves: cat(dead, []lmove{{what: "tick", at: sec + 100*ms + 1}, {what: "tick", at: 5 * sec}}),
			check: func(t *testing.T, r *lifeRig) {
				if len(r.conns) != 2 || r.conns[1].count(kindRejoin) != 1 {
					t.Errorf("%d connections dialed", len(r.conns))
				}
			}},
		{name: "REJOIN-OK attaches, restores and trains from the resume iteration",
			moves: cat(dead, []lmove{{what: "tick", at: 2 * sec}, {what: "rejoinok", inc: 1, at: 2 * sec}}),
			check: func(t *testing.T, r *lifeRig) {
				if r.l.mesh == nil || r.l.w.startIter != 5 || r.l.want != 0 || r.spawned != 4 {
					t.Errorf("mesh %v, resumes at %d, waits for %d, %d posters", r.l.mesh, r.l.w.startIter, r.l.want, r.spawned)
				}
			}},
		{name: "a relaunched process rejoins after its checkpoint's step, counting what its schedule ran", relaunch: true,
			moves: []lmove{{what: "tick"}, {what: "rejoinok"}},
			check: func(t *testing.T, r *lifeRig) {
				if k := r.conns[0].sent(); len(k) != 1 || k[0] != kindRejoin || r.l.w.startIter != 5 || r.l.ran != 3 {
					t.Errorf("wrote %v, resumes at %d with %d iterations run; want REJOIN, 5, 3", k, r.l.w.startIter, r.l.ran)
				}
			}},
		{name: "the dead incarnation's connection error changes nothing",
			moves: cat(dead, []lmove{{what: "tick", at: 2 * sec}, {what: "drop", at: 2 * sec}}), unchanged: true},
		{name: "a frame on a superseded connection changes nothing",
			moves: cat(dead, []lmove{{what: "tick", at: 2 * sec}, {what: "rejoinok", inc: 1, at: 2 * sec},
				{what: "bye", at: 3 * sec}}),
			unchanged: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := coordConfig(t)
			if tc.noCrashes {
				cfg.Faults, cfg.Elastic = nil, false
			}
			var opts []Option
			if tc.exit {
				opts = append(opts, WithExitOnDeath())
			}
			rank := -1
			if tc.relaunch {
				rank = 1
			}
			r := newLifeRig(t, cfg, rank, opts...)
			last := len(tc.moves) - 1
			r.play(t, tc.moves[:last]...)
			if tc.before != nil {
				tc.before(r)
			}
			before := r.view()
			if got := r.play(t, tc.moves[last]); got != tc.want {
				t.Fatalf("life ended with %q, want %q", got, tc.want)
			}
			if tc.unchanged && r.view() != before {
				t.Errorf("%+v changed the state:\n%s\n%s", tc.moves[last], before, r.view())
			}
			if tc.check != nil {
				tc.check(t, r)
			}
		})
	}
}

// TestWorkerLifeExplore draws seeded orders of one rank's events — the
// coordinator's answers, each as soon as the worker asked or later, the end
// of each incarnation's training, ticks at random times, late errors and
// stray frames on the connections of dead incarnations, and at most one
// lost connection or frame out of turn — for coordConfig's rank 2, which
// dies twice and comes back both times, and checks after every step:
//
//   - frames are written only in protocol order: HELLO, ADDR, READY (or
//     REJOIN), then HEARTBEATs, only while the incarnation trains, then one
//     DONE;
//   - each finishing incarnation writes one DONE, with the iterations every
//     incarnation ran;
//   - no frame or error from a dead incarnation's connection changes state;
//   - the life ends exactly at BYE, and fails only on the injected fault,
//     naming its rank.
//
// A seed that breaks one becomes a row of TestWorkerLifeStep.
func TestWorkerLifeExplore(t *testing.T) {
	seeds := 3000
	if testing.Short() {
		seeds = 300
	}
	cfg := coordConfig(t)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		if msg := exploreLife(t, cfg, seed); msg != "" {
			t.Errorf("seed %d: %s", seed, msg)
		}
	}
}

// exploreLife plays one seeded order of rank 2's life and returns the first
// broken invariant, or "".
func exploreLife(t *testing.T, cfg core.Config, seed int64) string {
	const rank = 2
	rnd := rand.New(rand.NewSource(seed))
	r := newLifeRig(t, cfg, -1)
	defer r.l.close()
	ch := newChaos(&cfg)
	// Each incarnation's first iteration and the one it dies at, 0 for the
	// one that finishes.
	var from, die []int
	for it := 1; it != 0; {
		from = append(from, it)
		d := ch.firstDeath(rank, it)
		die = append(die, d)
		if d == 0 {
			break
		}
		it = ch.inj.NextAliveIter(rank, d)
	}
	answer := map[uint16]string{kindHello: "assign", kindAddr: "peers", kindReady: "start", kindRejoin: "rejoinok", kindDone: "bye"}
	answered := map[int]int{} // per connection: the frames the coordinator answered
	training := false
	fault := []string{"", "", "drop", "ready"}[rnd.Intn(4)]
	now := time.Duration(0)
	for stepNo := 0; stepNo < 1000; stepNo++ {
		cur := len(r.conns) - 1
		live := cur >= 0 && !r.conns[cur].closed
		var asks []uint16 // the frames on cur the coordinator answers
		if live {
			for _, k := range r.conns[cur].sent() {
				if answer[k] != "" {
					asks = append(asks, k)
				}
			}
		}
		choices := []string{"tick", "tick"}
		if live && len(asks) > answered[cur] {
			choices = append(choices, "reply", "reply", "reply")
		}
		if training {
			choices = append(choices, "trained", "trained")
		}
		if cur > 0 || cur == 0 && !live {
			choices = append(choices, "stale")
		}
		if live && fault != "" {
			choices = append(choices, "fault")
		}
		now += time.Duration(rnd.Intn(150)) * time.Millisecond
		m := lmove{what: choices[rnd.Intn(len(choices))], inc: cur, rank: rank, at: now}
		stale, faulty := m.what == "stale", m.what == "fault"
		switch m.what {
		case "reply":
			m.what = answer[asks[answered[cur]]]
			answered[cur]++
			training = m.what == "start" || m.what == "rejoinok"
		case "trained":
			k := cur // the incarnation that trains
			upto := die[k] - 1
			if die[k] == 0 {
				upto = cfg.Iters
			}
			r.l.w.iters = ch.ran(rank, upto) - ch.ran(rank, from[k]-1)
			m.what, m.it, training = "done", die[k], false
			if die[k] != 0 {
				m.what = "death"
			}
		case "stale":
			if m.inc = rnd.Intn(cur + 1); live {
				m.inc = rnd.Intn(cur)
			}
			m.what = []string{"drop", "start", "bye", "peers"}[rnd.Intn(4)]
		case "fault":
			m.what = fault
		}
		before, heartbeats := r.view(), r.count(kindHeartbeat)
		end, err := r.l.step(r.event(m), lifeStart.Add(now))

		if stale && r.view() != before {
			return fmt.Sprintf("step %d: %+v on a dead incarnation's connection changed the state", stepNo, m)
		}
		if err != nil {
			if !faulty {
				return fmt.Sprintf("step %d: %+v failed the life: %v", stepNo, m, err)
			}
			if !strings.HasPrefix(err.Error(), fmt.Sprintf("live: worker %d ", rank)) && !strings.HasPrefix(err.Error(), "live: assign: ") {
				return fmt.Sprintf("step %d: failure names no rank: %v", stepNo, err)
			}
			return ""
		}
		if faulty {
			return fmt.Sprintf("step %d: %+v did not fail the life", stepNo, m)
		}
		if n := r.count(kindHeartbeat); n != heartbeats && (m.what != "tick" || !training) {
			return fmt.Sprintf("step %d: %+v wrote a HEARTBEAT outside training", stepNo, m)
		}
		for k, c := range r.conns {
			kinds := c.sent()
			if !inOrder(kinds, k == 0) {
				return fmt.Sprintf("step %d: %+v: incarnation %d wrote %v", stepNo, m, k, kinds)
			}
			if slices.Contains(kinds, kindDone) && die[k] != 0 {
				return fmt.Sprintf("step %d: incarnation %d, which dies, wrote DONE", stepNo, k)
			}
		}
		if end != (m.what == "bye" && !stale) {
			return fmt.Sprintf("step %d: %+v: end %v", stepNo, m, end)
		}
		if end {
			fs := r.conns[len(r.conns)-1].frames()
			d, err := parseDone(fs[len(fs)-1])
			if want := ch.ran(rank, cfg.Iters); err != nil || d.iters != want {
				return fmt.Sprintf("DONE reports %d iterations (%v), the schedule ran %d", d.iters, err, want)
			}
			return ""
		}
	}
	return "the life never ended"
}

// count is how many frames of kind the life wrote on every connection.
func (r *lifeRig) count(kind uint16) int {
	n := 0
	for _, c := range r.conns {
		n += c.count(kind)
	}
	return n
}

// inOrder reports whether kinds, the frames an incarnation wrote on its
// connection, follow the protocol: HELLO, ADDR and READY (the first) or
// REJOIN, then HEARTBEATs, then at most one DONE, last.
func inOrder(kinds []uint16, first bool) bool {
	head := []uint16{kindRejoin}
	if first {
		head = []uint16{kindHello, kindAddr, kindReady}
	}
	n := min(len(kinds), len(head))
	if !slices.Equal(kinds[:n], head[:n]) || n < len(head) && len(kinds) > n {
		return false
	}
	for i, k := range kinds[n:] {
		if k != kindHeartbeat && (k != kindDone || n+i != len(kinds)-1) {
			return false
		}
	}
	return true
}
