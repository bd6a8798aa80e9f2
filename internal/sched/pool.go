// Package sched is a bounded compute pool with a future API — the "real
// compute parallel, simulation logic single-threaded" split used by
// parallel discrete-event systems.
//
// The discrete-event engine in internal/des deliberately runs exactly one
// simulated process at a time, which makes event order (and therefore every
// simulation output) bit-for-bit reproducible — but it also means the real
// forward/backward passes of N simulated workers execute serially on one
// core. This package restores hardware parallelism without touching event
// order: a simulated process *submits* its pure numeric work as a future at
// one fixed point in the event trace and *joins* the result at another
// fixed point; between the two, the work runs on a real goroutine pool
// concurrently with other processes' futures. As long as submitted
// closures share no mutable state (each training replica owns its model,
// arena, sampler and RNG streams) and every join point is fixed by the
// event trace, results are byte-identical for any pool size — the engine
// never observes *when* the work ran, only that it is done.
package sched

import "sync"

// Pool executes submitted tasks on a fixed set of worker goroutines. The
// queue is unbounded (submission never blocks the simulation thread); the
// concurrency bound is the worker count. A nil *Pool is valid and runs
// every submission inline on the caller's goroutine — the serial mode the
// deterministic tests compare against.
type Pool struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []func()
	closed bool
	size   int
	wg     sync.WaitGroup
}

// NewPool starts a pool of n worker goroutines (n < 1 is clamped to 1).
// Close must be called when done so the workers exit.
func NewPool(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{size: n}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go p.worker()
	}
	return p
}

// Size returns the worker count (0 for a nil, inline pool).
func (p *Pool) Size() int {
	if p == nil {
		return 0
	}
	return p.size
}

func (p *Pool) worker() {
	defer p.wg.Done()
	p.mu.Lock()
	for {
		for len(p.queue) == 0 && !p.closed {
			p.cond.Wait()
		}
		if len(p.queue) == 0 {
			p.mu.Unlock()
			return
		}
		task := p.queue[0]
		p.queue = p.queue[1:]
		p.mu.Unlock()
		task()
		p.mu.Lock()
	}
}

// enqueue appends a task and wakes one worker.
func (p *Pool) enqueue(task func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("sched: Submit on closed pool")
	}
	p.queue = append(p.queue, task)
	p.mu.Unlock()
	p.cond.Signal()
}

// Close drains the queue and stops the workers. Every task submitted
// before Close completes before Close returns; Submit after Close panics.
// Close on a nil pool is a no-op.
func (p *Pool) Close() {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
}

// Future is the pending result of a submitted task.
type Future[T any] struct {
	done chan struct{}
	val  T
}

// Submit schedules fn on the pool and returns its future. On a nil pool fn
// runs inline before Submit returns (the future is already resolved).
func Submit[T any](p *Pool, fn func() T) *Future[T] {
	f := &Future[T]{done: make(chan struct{})}
	if p == nil {
		f.val = fn()
		close(f.done)
		return f
	}
	p.enqueue(func() {
		f.val = fn()
		close(f.done)
	})
	return f
}

// Wait blocks until the task completes and returns its result. Safe to
// call any number of times from any goroutine; every call returns the same
// value.
func (f *Future[T]) Wait() T {
	<-f.done
	return f.val
}

// Done reports whether the task has completed without blocking.
func (f *Future[T]) Done() bool {
	select {
	case <-f.done:
		return true
	default:
		return false
	}
}
