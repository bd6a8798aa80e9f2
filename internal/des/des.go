//go:build go1.23

// Package des is a deterministic discrete-event simulation engine.
//
// It exists because the paper's performance results (scalability, time
// breakdowns, optimization effects) were measured on a 24-GPU cluster we do
// not have; the substitution is to run the same algorithms against a
// virtual clock. Simulated processes are coroutines (iter.Pull): exactly one
// piece of simulation code runs at a time and control is handed off
// explicitly, so a given seed and configuration always produces the
// identical event trace — tests depend on this bit-for-bit reproducibility.
//
// Processes are written in ordinary blocking style:
//
//	eng.Spawn("worker", func(p *des.Proc) {
//	    p.Sleep(0.010)            // compute for 10 virtual ms
//	    replies.Push(msg)         // deliver instantly
//	    m := inbox.Recv(p)        // block until a message arrives
//	    _ = m
//	})
//	eng.Run(0)
//
// The engine loop runs on the goroutine that called Run. It takes the
// earliest event — ties broken by schedule order, a strict total order on
// (time, sequence number) — advances the virtual clock, and either runs a
// callback, delivers a PushAt item, or switches into the owning process's
// coroutine until that process yields again. Nothing is handed between
// goroutines through the scheduler: a resume costs two coroutine switches,
// an event costs no allocation, and a message sent with PushAt costs none
// either.
//
// A panic in a process body surfaces from Run on Run's caller as a
// *ProcPanic carrying the process's stack; the engine stays usable (Kill,
// or Run again). Kill discards every unfinished process: one that is parked
// unwinds through its deferred calls, one whose start event was never
// reached is dropped without running at all.
//
// The build constraint is the package's only toolchain requirement: iter
// arrived in go 1.23 while go.mod still says 1.22 (bench/go.mod is frozen
// with the benchmark and must move together with it). There is no fallback
// engine for older toolchains.
package des

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sort"
)

// Time is virtual time in seconds.
type Time = float64

// target is what an event acts on: a callback, a process to resume, or a
// queue with an item to deliver. arg is the target's own word of state,
// fixed when the event is scheduled.
type target interface {
	fire(arg uint64)
}

// action is an event without its place in the order.
type action struct {
	target target
	arg    uint64
}

// event is an action due at t; seq, the order of scheduling, breaks ties.
type event struct {
	t   Time
	seq uint64
	action
}

func (a *event) before(b *event) bool {
	return a.t < b.t || (a.t == b.t && a.seq < b.seq)
}

// eventPQ is a binary min-heap of events by value: (t, seq) is a strict
// total order, so any correct heap pops the same sequence.
type eventPQ []event

func (q *eventPQ) push(ev event) {
	h := append(*q, ev)
	*q = h
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&h[parent]) {
			break
		}
		h[i] = h[parent]
		i = parent
	}
	h[i] = ev
}

func (q *eventPQ) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{} // drop the target reference
	h = h[:n]
	*q = h
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && h[r].before(&h[child]) {
			child = r
		}
		if !h[child].before(&last) {
			break
		}
		h[i] = h[child]
		i = child
	}
	if n > 0 {
		h[i] = last
	}
	return top
}

// fifo is a first-in first-out buffer that allocates only to grow: a ring
// over a power-of-two slice. Popped slots are zeroed, so the buffer keeps
// nothing reachable that has left it.
type fifo[T any] struct {
	buf  []T
	head int // index of the oldest item
	n    int
}

// at returns the i-th oldest item's place in the buffer.
func (f *fifo[T]) at(i int) *T { return &f.buf[(f.head+i)&(len(f.buf)-1)] }

func (f *fifo[T]) push(v T) {
	if f.n == len(f.buf) {
		grown := make([]T, max(4, 2*len(f.buf)))
		for i := 0; i < f.n; i++ {
			grown[i] = *f.at(i)
		}
		f.buf, f.head = grown, 0
	}
	f.n++
	*f.at(f.n - 1) = v
}

func (f *fifo[T]) pop() T {
	var zero T
	v := f.buf[f.head]
	f.buf[f.head] = zero
	f.head = (f.head + 1) & (len(f.buf) - 1)
	f.n--
	return v
}

// Engine is a single-threaded discrete-event simulator.
type Engine struct {
	now Time
	pq  eventPQ
	seq uint64
	// instant holds the events scheduled for the current instant (every
	// wake-up, every Sleep(0)) in schedule order. Run drains it after the
	// heap's entries for that instant and before the clock moves, which is
	// exactly (t, seq) order: whatever the heap holds for now was scheduled
	// while the clock stood earlier, so before anything in here.
	instant fifo[action]
	procs   []*Proc
	events  uint64 // processed events, for stats/tests
}

// NewEngine creates an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Events returns the number of events processed so far.
func (e *Engine) Events() uint64 { return e.events }

type callback func()

func (fn callback) fire(uint64) { fn() }

// Schedule runs fn at absolute virtual time t (>= Now), on the goroutine
// that calls Run.
func (e *Engine) Schedule(t Time, fn func()) {
	e.push(t, callback(fn), 0)
}

func (e *Engine) push(t Time, tg target, arg uint64) {
	if t == e.now {
		e.instant.push(action{tg, arg})
		return
	}
	if t < e.now {
		panic(fmt.Sprintf("des: schedule at %v before now %v", t, e.now))
	}
	e.pq.push(event{t, e.seq, action{tg, arg}})
	e.seq++
}

// Proc is a simulated process. All Proc methods must be called only from
// the process's own body (the function passed to Spawn).
type Proc struct {
	Name string
	eng  *Engine
	// next switches into the process until it yields or returns. stop ends
	// it: the yield a parked process waits in returns false, and a process
	// that never started never will. Both are called by the engine only.
	next func() (struct{}, bool)
	stop func()
	// pause is the process's side of the switch: it returns control to
	// whoever called next, and reports false once the process was stopped.
	pause func(struct{}) bool
	done  bool
	// blocked marks a proc that yielded without a scheduled wakeup; used to
	// report stuck processes (e.g. the AD-PSGD deadlock demonstration).
	blocked bool
	// gen counts resumes. Scheduling a wakeup stamps the current gen on the
	// event; each actual resume increments it, invalidating every other
	// wakeup scheduled for the same blocking point (timeout backstops that
	// lost the race to a Push, and vice versa).
	gen uint64
}

type procKilled struct{}

// ProcPanic is the value Run panics with when a process body panics. Stack
// is the process's own stack at the panic, which is otherwise lost when the
// panic crosses from the coroutine to Run's caller.
type ProcPanic struct {
	Proc  string
	Value any
	Stack []byte
}

func (pp *ProcPanic) Error() string {
	return fmt.Sprintf("%v (in process %q)\n%s", pp.Value, pp.Proc, pp.Stack)
}

// Spawn starts a new process at the current virtual time. The body runs the
// first time the engine reaches the start event.
func (e *Engine) Spawn(name string, body func(*Proc)) *Proc {
	p := &Proc{Name: name, eng: e}
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.pause = yield
		defer func() {
			p.done = true
			if r := recover(); r != nil {
				if _, killed := r.(procKilled); !killed {
					panic(&ProcPanic{Proc: name, Value: r, Stack: debug.Stack()})
				}
			}
		}()
		body(p)
	})
	e.procs = append(e.procs, p)
	e.push(e.now, p, p.gen)
	return p
}

// fire resumes the process if the wake-up is still current: gen is p.gen
// as it stood when the wake-up was scheduled, and a process that has been
// resumed since by a different event has moved on.
func (p *Proc) fire(gen uint64) {
	if p.done || gen != p.gen {
		return
	}
	p.gen++
	p.blocked = false
	p.next()
}

// ProcState describes one process still alive when Run returned: either
// parked with no pending wakeup (blocked — a deadlock, or waiting on input
// that will never arrive) or holding a wakeup beyond the run horizon.
type ProcState struct {
	Name string
	// State is "blocked" for a parked process with no scheduled wakeup, or
	// "waiting until t=<time>" for one whose next wakeup lies beyond the
	// `until` horizon.
	State string
}

func (s ProcState) String() string { return s.Name + " (" + s.State + ")" }

// Run processes events until none is left, or until virtual time
// exceeds `until` if until > 0 (events beyond the horizon stay queued).
// It returns the processes still alive at drain — blocked ones are
// deadlocked (or waiting on input that will never arrive); with a horizon,
// processes whose next wakeup lies beyond it are reported as waiting.
// Server loops that block forever by design show up here too; callers
// decide which names are anomalous.
//
// Callbacks run on the calling goroutine and process bodies on coroutines
// it switches into, so a panic in either propagates to the caller (a
// process's as a *ProcPanic).
func (e *Engine) Run(until Time) []ProcState {
	for until <= 0 || e.now <= until {
		var a action
		switch {
		case len(e.pq) > 0 && e.pq[0].t == e.now:
			a = e.pq.pop().action
		case e.instant.n > 0:
			a = e.instant.pop()
		case len(e.pq) == 0:
			return e.drainReport()
		case until > 0 && e.pq[0].t > until:
			e.now = until
			return e.drainReport()
		default:
			ev := e.pq.pop()
			e.now, a = ev.t, ev.action
		}
		e.events++
		a.target.fire(a.arg)
	}
	return e.drainReport()
}

// drainReport snapshots the live processes: blocked ones, plus — when
// events remain queued past a horizon — the ones with pending wakeups.
func (e *Engine) drainReport() []ProcState {
	wakeAt := make(map[*Proc]Time)
	note := func(t Time, a action) {
		p, ok := a.target.(*Proc)
		if !ok || p.done || a.arg != p.gen {
			return
		}
		if at, ok := wakeAt[p]; !ok || t < at {
			wakeAt[p] = t
		}
	}
	for i := range e.pq {
		note(e.pq[i].t, e.pq[i].action)
	}
	for i := 0; i < e.instant.n; i++ {
		note(e.now, *e.instant.at(i))
	}
	var out []ProcState
	for _, p := range e.procs {
		if p.done {
			continue
		}
		if p.blocked {
			out = append(out, ProcState{Name: p.Name, State: "blocked"})
		} else if t, ok := wakeAt[p]; ok {
			out = append(out, ProcState{Name: p.Name, State: fmt.Sprintf("waiting until t=%g", t)})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stuck returns the names of processes that are blocked with no pending
// wakeup — after Run returns, these are deadlocked (or waiting on input
// that will never arrive).
func (e *Engine) Stuck() []string {
	var s []string
	for _, p := range e.procs {
		if !p.done && p.blocked {
			s = append(s, p.Name)
		}
	}
	sort.Strings(s)
	return s
}

// Kill ends every unfinished process, so an engine whose processes run
// forever (server loops) leaves no goroutine behind when many experiments
// share one Go process. A parked process unwinds through its deferred
// calls; one that never started is dropped without running its body.
func (e *Engine) Kill() {
	for _, p := range e.procs {
		if !p.done {
			p.done = true
			p.stop()
		}
	}
}

// yield hands control back to the engine until the process is resumed.
func (p *Proc) yield() {
	if !p.pause(struct{}{}) {
		panic(procKilled{})
	}
}

// Sleep advances the process by d seconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("des: negative sleep")
	}
	p.eng.push(p.eng.now+d, p, p.gen)
	p.yield()
}

// Block parks the process until something wakes it (Queue.Recv uses this).
func (p *Proc) block() {
	p.blocked = true
	p.yield()
}

// wake schedules the process to resume at the current time.
func (p *Proc) wake() {
	p.eng.push(p.eng.now, p, p.gen)
}

// Now returns the engine's current virtual time.
func (p *Proc) Now() Time { return p.eng.Now() }

// Queue is an unbounded FIFO mailbox connecting processes (and callbacks)
// inside one engine. Push never blocks; Recv blocks the calling process
// until an item is available.
type Queue[T any] struct {
	eng *Engine
	// slots holds every item the queue knows of, queued or still in flight
	// (a PushAt whose time has not come), from the call that sent it until
	// a receiver takes it; free lists the vacant slots. ready is the queue
	// proper: the slots of the delivered items, oldest first.
	slots   []T
	free    []uint32
	ready   fifo[uint32]
	waiting []*Proc
}

// NewQueue creates a mailbox on the engine.
func NewQueue[T any](e *Engine) *Queue[T] {
	return &Queue[T]{eng: e}
}

// store puts v in a vacant slot.
func (q *Queue[T]) store(v T) uint32 {
	if n := len(q.free); n > 0 {
		slot := q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[slot] = v
		return slot
	}
	q.slots = append(q.slots, v)
	return uint32(len(q.slots) - 1)
}

// Push appends an item and wakes one waiting receiver, if any. Safe to call
// from event callbacks or from any process.
func (q *Queue[T]) Push(v T) {
	q.fire(uint64(q.store(v)))
}

// PushAt pushes v at absolute virtual time t (>= Now). It is
// Schedule(t, func() { q.Push(v) }) — the same place in the event order,
// the same one event counted — without the closure: v waits in its slot,
// the event carries the slot's index, and once the queue has seen its peak
// of items a PushAt allocates nothing.
func (q *Queue[T]) PushAt(t Time, v T) {
	q.eng.push(t, q, uint64(q.store(v)))
}

// fire delivers the item waiting in slot.
func (q *Queue[T]) fire(slot uint64) {
	q.ready.push(uint32(slot))
	q.wakeOne()
}

// pop removes the oldest item, leaving its slot zeroed: the mailbox must
// not keep a payload alive after its receiver took it.
func (q *Queue[T]) pop() T {
	var zero T
	slot := q.ready.pop()
	v := q.slots[slot]
	q.slots[slot] = zero
	q.free = append(q.free, slot)
	return v
}

// wakeOne wakes the longest-waiting receiver, if any. The rest slide down
// (they are few) so that the list keeps its buffer.
func (q *Queue[T]) wakeOne() {
	if len(q.waiting) == 0 {
		return
	}
	p := q.waiting[0]
	q.removeWaiter(p)
	p.wake()
}

// take removes the oldest item. If items remain and receivers still wait
// (multi-consumer), the next one is woken in turn.
func (q *Queue[T]) take() T {
	v := q.pop()
	if q.ready.n > 0 {
		q.wakeOne()
	}
	return v
}

// Recv removes and returns the oldest item, blocking p until one exists.
func (q *Queue[T]) Recv(p *Proc) T {
	for q.ready.n == 0 {
		q.waiting = append(q.waiting, p)
		p.block()
	}
	return q.take()
}

// RecvTimeout removes and returns the oldest item, blocking p until one
// exists or d seconds of virtual time elapse, whichever comes first. On
// timeout it returns (zero, false). d <= 0 degenerates to TryRecv.
func (q *Queue[T]) RecvTimeout(p *Proc, d Time) (T, bool) {
	var zero T
	if d <= 0 {
		return q.TryRecv()
	}
	deadline := p.eng.now + d
	for q.ready.n == 0 {
		if p.eng.now >= deadline {
			q.removeWaiter(p)
			return zero, false
		}
		// Timeout backstop. If a Push wins the race, the resume bumps p.gen
		// and this event goes stale; if the queue is sniped and we re-block,
		// a fresh backstop is scheduled (the old one is already stale).
		p.eng.push(deadline, p, p.gen)
		q.waiting = append(q.waiting, p)
		p.block()
	}
	// Items arrived. We may still be in the waiting list (woken by the
	// timeout event in the same timestamp as a Push aimed at another
	// waiter) — drop the entry so no future Push targets a gone receiver.
	q.removeWaiter(p)
	return q.take(), true
}

// removeWaiter deletes p from the waiting list if present.
func (q *Queue[T]) removeWaiter(p *Proc) {
	for i, w := range q.waiting {
		if w == p {
			q.waiting = append(q.waiting[:i], q.waiting[i+1:]...)
			return
		}
	}
}

// TryRecv removes and returns the oldest item without blocking.
func (q *Queue[T]) TryRecv() (T, bool) {
	if q.ready.n == 0 {
		var zero T
		return zero, false
	}
	return q.pop(), true
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.ready.n }
