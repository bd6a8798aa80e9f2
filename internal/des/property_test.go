package des

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"
)

// The property: whatever a program of processes, mailboxes, callbacks and
// timeouts does, the engine executes it in the order a reference gives that
// keeps every scheduled event in one list and always takes the least by
// (t, seq), seq counting every scheduling call. The reference has no heap,
// no same-instant queue, no coroutine and no slot reuse: processes are
// interpreted as state machines over the same op lists.

type opKind int

const (
	opSleep opKind = iota
	opPush
	opPushAt
	opRecv
	opRecvTimeout
	opTryRecv
	opSchedule // a callback at now+d that pushes v
	opSpawn
	numOpKinds
)

type op struct {
	kind  opKind
	q     int
	d     Time
	v     int
	child []op
}

// step is one line of the executed trace: an op of a process completing (or
// a callback running, proc = -1) at time t, with what it received.
type step struct {
	t    Time
	proc int
	pc   int
	kind opKind
	v    int
	ok   bool
}

type outcome struct {
	trace  []step
	events uint64
	now    Time
	stuck  []string
	midRun []ProcState
}

const propQueues = 3

// delays are few and coarse so that ties, zero sleeps and timeouts that land
// on the same instant as a push are the common case, not the rare one.
var delays = []Time{0, 0, 0.5, 1, 1, 2, 3}

func genOps(r *rand.Rand, n, depth int, nextVal *int) []op {
	ops := make([]op, n)
	for i := range ops {
		o := op{kind: opKind(r.Intn(int(numOpKinds))), q: r.Intn(propQueues), d: delays[r.Intn(len(delays))]}
		if o.kind == opSpawn {
			if depth == 0 {
				o.kind = opPush
			} else {
				o.child = genOps(r, 1+r.Intn(5), depth-1, nextVal)
			}
		}
		*nextVal++
		o.v = *nextVal
		ops[i] = o
	}
	return ops
}

func procName(id int) string { return fmt.Sprintf("p%03d", id) }

// runEngine executes the program on the real engine: to a horizon, then two
// pushes from outside any process, then to the end.
func runEngine(roots [][]op, until Time) outcome {
	var out outcome
	e := NewEngine()
	qs := make([]*Queue[int], propQueues)
	for i := range qs {
		qs[i] = NewQueue[int](e)
	}
	ids := 0
	var spawn func(ops []op)
	spawn = func(ops []op) {
		id := ids
		ids++
		e.Spawn(procName(id), func(p *Proc) {
			for pc, o := range ops {
				s := step{proc: id, pc: pc, kind: o.kind}
				q := qs[o.q]
				switch o.kind {
				case opSleep:
					p.Sleep(o.d)
				case opPush:
					q.Push(o.v)
				case opPushAt:
					q.PushAt(p.Now()+o.d, o.v)
				case opRecv:
					s.v, s.ok = q.Recv(p), true
				case opRecvTimeout:
					s.v, s.ok = q.RecvTimeout(p, o.d)
				case opTryRecv:
					s.v, s.ok = q.TryRecv()
				case opSchedule:
					e.Schedule(p.Now()+o.d, func() {
						out.trace = append(out.trace, step{t: e.Now(), proc: -1, kind: opSchedule, v: o.v})
						q.Push(o.v)
					})
				case opSpawn:
					spawn(o.child)
				}
				s.t = p.Now()
				out.trace = append(out.trace, s)
			}
		})
	}
	for _, ops := range roots {
		spawn(ops)
	}
	out.midRun = e.Run(until)
	qs[0].Push(-1)
	qs[1].PushAt(e.Now(), -2)
	e.Run(0)
	out.events, out.now, out.stuck = e.Events(), e.Now(), e.Stuck()
	e.Kill()
	return out
}

type refProc struct {
	id       int
	ops      []op
	pc       int
	gen      uint64
	done     bool
	blocked  bool
	inOp     bool // resumed in the middle of ops[pc]
	deadline Time
}

type refEvent struct {
	t    Time
	seq  uint64
	proc *refProc // a wake-up stamped with gen, or
	gen  uint64
	fn   func() // a callback
}

type refQueue struct {
	items   []int
	waiting []*refProc
}

type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
	events  uint64
	procs   []*refProc
	qs      [propQueues]refQueue
	trace   []step
}

func (r *refEngine) schedule(ev refEvent) {
	ev.seq = r.seq
	r.seq++
	r.pending = append(r.pending, ev)
}

func (r *refEngine) wakeAt(t Time, p *refProc) { r.schedule(refEvent{t: t, proc: p, gen: p.gen}) }

func (r *refEngine) spawn(ops []op) {
	p := &refProc{id: len(r.procs), ops: ops}
	r.procs = append(r.procs, p)
	r.wakeAt(r.now, p)
}

func (q *refQueue) drop(p *refProc) {
	for i, w := range q.waiting {
		if w == p {
			q.waiting = append(q.waiting[:i:i], q.waiting[i+1:]...)
			return
		}
	}
}

func (r *refEngine) wakeFirst(q *refQueue) {
	if len(q.waiting) > 0 {
		p := q.waiting[0]
		q.waiting = q.waiting[1:]
		r.wakeAt(r.now, p)
	}
}

func (r *refEngine) push(q *refQueue, v int) {
	q.items = append(q.items, v)
	r.wakeFirst(q)
}

// take pops for a blocking receive, which passes the baton on to the next
// waiter while items remain.
func (r *refEngine) take(q *refQueue) int {
	v := q.items[0]
	q.items = q.items[1:]
	if len(q.items) > 0 {
		r.wakeFirst(q)
	}
	return v
}

// resume interprets p's ops until one parks it.
func (r *refEngine) resume(p *refProc) {
	for p.pc < len(p.ops) {
		o := p.ops[p.pc]
		q := &r.qs[o.q]
		s := step{proc: p.id, pc: p.pc, kind: o.kind}
		switch o.kind {
		case opSleep:
			if !p.inOp {
				p.inOp = true
				r.wakeAt(r.now+o.d, p)
				return
			}
		case opPush:
			r.push(q, o.v)
		case opPushAt:
			r.schedule(refEvent{t: r.now + o.d, fn: func() { r.push(q, o.v) }})
		case opRecv:
			if len(q.items) == 0 {
				q.waiting = append(q.waiting, p)
				p.blocked = true
				return
			}
			s.v, s.ok = r.take(q), true
		case opRecvTimeout:
			if o.d <= 0 {
				if len(q.items) > 0 {
					s.v, s.ok = q.items[0], true
					q.items = q.items[1:]
				}
				break
			}
			if !p.inOp {
				p.inOp = true
				p.deadline = r.now + o.d
			}
			if len(q.items) == 0 && r.now < p.deadline {
				r.wakeAt(p.deadline, p)
				q.waiting = append(q.waiting, p)
				p.blocked = true
				return
			}
			q.drop(p)
			if len(q.items) > 0 {
				s.v, s.ok = r.take(q), true
			}
		case opTryRecv:
			if len(q.items) > 0 {
				s.v, s.ok = q.items[0], true
				q.items = q.items[1:]
			}
		case opSchedule:
			r.schedule(refEvent{t: r.now + o.d, fn: func() {
				r.trace = append(r.trace, step{t: r.now, proc: -1, kind: opSchedule, v: o.v})
				r.push(q, o.v)
			}})
		case opSpawn:
			r.spawn(o.child)
		}
		p.inOp = false
		s.t = r.now
		r.trace = append(r.trace, s)
		p.pc++
	}
	p.done = true
}

func (r *refEngine) run(until Time) {
	for len(r.pending) > 0 {
		sort.Slice(r.pending, func(i, j int) bool {
			a, b := r.pending[i], r.pending[j]
			return a.t < b.t || (a.t == b.t && a.seq < b.seq)
		})
		ev := r.pending[0]
		if until > 0 && ev.t > until {
			r.now = until
			return
		}
		r.pending = r.pending[1:]
		r.now = ev.t
		r.events++
		switch {
		case ev.fn != nil:
			ev.fn()
		case !ev.proc.done && ev.gen == ev.proc.gen:
			ev.proc.gen++
			ev.proc.blocked = false
			r.resume(ev.proc)
		}
	}
}

// report is the reference's drain report: blocked processes, and those whose
// earliest live wake-up is still pending.
func (r *refEngine) report() []ProcState {
	var out []ProcState
	for _, p := range r.procs {
		if p.done {
			continue
		}
		if p.blocked {
			out = append(out, ProcState{procName(p.id), "blocked"})
			continue
		}
		at, found := Time(0), false
		for _, ev := range r.pending {
			if ev.proc == p && ev.gen == p.gen && (!found || ev.t < at) {
				at, found = ev.t, true
			}
		}
		if found {
			out = append(out, ProcState{procName(p.id), fmt.Sprintf("waiting until t=%g", at)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func runReference(roots [][]op, until Time) outcome {
	r := &refEngine{}
	for _, ops := range roots {
		r.spawn(ops)
	}
	r.run(until)
	out := outcome{midRun: r.report()}
	r.push(&r.qs[0], -1)
	r.schedule(refEvent{t: r.now, fn: func() { r.push(&r.qs[1], -2) }})
	r.run(0)
	out.trace, out.events, out.now = r.trace, r.events, r.now
	for _, p := range r.procs {
		if !p.done && p.blocked {
			out.stuck = append(out.stuck, procName(p.id))
		}
	}
	sort.Strings(out.stuck)
	return out
}

func TestRandomProgramsMatchReferenceOrder(t *testing.T) {
	for _, procs := range []int{1, 8} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var steps, timeouts, received int
			for seed := int64(1); seed <= 300; seed++ {
				r := rand.New(rand.NewSource(seed))
				nextVal := 0
				roots := make([][]op, 2+r.Intn(6))
				for i := range roots {
					roots[i] = genOps(r, 3+r.Intn(10), 2, &nextVal)
				}
				until := Time(1 + r.Intn(6))
				got, want := runEngine(roots, until), runReference(roots, until)
				if !reflect.DeepEqual(got, want) {
					for i := range want.trace {
						if i >= len(got.trace) || got.trace[i] != want.trace[i] {
							t.Fatalf("seed %d: traces part at step %d of %d/%d\n got %+v\nwant %+v",
								seed, i, len(got.trace), len(want.trace), got.trace[min(i, len(got.trace)-1)], want.trace[i])
						}
					}
					got.trace, want.trace = nil, nil
					t.Fatalf("seed %d: same trace, but\n got %+v\nwant %+v", seed, got, want)
				}
				steps += len(want.trace)
				for _, s := range want.trace {
					switch {
					case s.kind == opRecvTimeout && !s.ok:
						timeouts++
					case (s.kind == opRecvTimeout || s.kind == opRecv) && s.ok:
						received++
					}
				}
			}
			// The programs must reach what they are meant to test.
			if steps < 5000 || timeouts < 100 || received < 500 {
				t.Fatalf("weak programs: %d steps, %d timeouts, %d blocking receives", steps, timeouts, received)
			}
		})
	}
}
