package sched

import (
	"sync/atomic"
	"testing"
)

// TestPoolRunsEverySubmission checks all futures resolve with their own
// results across pool sizes, including the nil inline pool.
func TestPoolRunsEverySubmission(t *testing.T) {
	for _, n := range []int{0, 1, 4, 8} {
		var p *Pool
		if n > 0 {
			p = NewPool(n)
		}
		const tasks = 200
		futs := make([]*Future[int], tasks)
		for i := 0; i < tasks; i++ {
			i := i
			futs[i] = Submit(p, func() int { return i * i })
		}
		for i, f := range futs {
			if got := f.Wait(); got != i*i {
				t.Fatalf("pool %d: task %d returned %d, want %d", n, i, got, i*i)
			}
		}
		p.Close()
	}
}

// TestPoolCloseDrains ensures Close waits for in-flight and queued tasks.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(2)
	var ran atomic.Int64
	for i := 0; i < 100; i++ {
		Submit(p, func() struct{} {
			ran.Add(1)
			return struct{}{}
		})
	}
	p.Close()
	if got := ran.Load(); got != 100 {
		t.Fatalf("Close returned with %d/100 tasks run", got)
	}
}

// TestWaitIsIdempotent: Wait can be called repeatedly (the settle-then-take
// discipline in core depends on it).
func TestWaitIsIdempotent(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	var calls atomic.Int64
	f := Submit(p, func() int { calls.Add(1); return 7 })
	for i := 0; i < 3; i++ {
		if got := f.Wait(); got != 7 {
			t.Fatalf("Wait #%d = %d, want 7", i, got)
		}
	}
	if calls.Load() != 1 {
		t.Fatalf("task ran %d times, want 1", calls.Load())
	}
}

// TestNilPoolIsInline: a nil pool resolves at submission.
func TestNilPoolIsInline(t *testing.T) {
	f := Submit[int](nil, func() int { return 3 })
	if !f.Done() {
		t.Fatal("nil-pool submission not resolved at return")
	}
	if f.Wait() != 3 {
		t.Fatal("nil-pool future wrong value")
	}
	if (*Pool)(nil).Size() != 0 {
		t.Fatal("nil pool size not 0")
	}
	(*Pool)(nil).Close() // must not panic
}
