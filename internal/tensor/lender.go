package tensor

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Lender lends vectors by exact length and takes them back for the next Get
// of their length, so that code which rebuilds or moves the same vectors
// over and over allocates each once: the nn layers' scratch (an Arena), the
// simulator's whole vectors and collective chunks, and xport's frame sections.
//
// A vector comes back one of two ways. Put hands it over: its holder is done
// with it. Release lets go of one hold (Hold counts them, one per simulated
// message that carries the vector by reference) and takes the vector back
// with the last; it leaves a vector nothing holds alone.
//
// Vectors from Get are not zeroed: callers overwrite all of one, or use
// GetZeroed. Every method but DropEachCycle is nil-safe — a nil *Lender
// makes fresh vectors and takes nothing back — and all are safe for
// concurrent use; the zero value is empty, and a nil or empty vector takes no
// lock.
type Lender[T float32 | byte] struct {
	mu    sync.Mutex
	free  map[int][][]T // the vectors taken back, by length
	holds map[*T]int    // the holds on each held vector, by its first element
}

// Arena is the float32 lender the nn layers and training replicas draw their
// scratch from, so that buffers released when a batch shape changes (train
// step → evaluation → train step) are reused and steady-state training steps
// allocate ~nothing.
type Arena = Lender[float32]

// NewArena returns an empty Arena.
func NewArena() *Arena { return new(Arena) }

// PoisonReleased makes every lender fill what it takes back with NaNs (bytes
// with 0xFF), so that a reader who kept a vector past its release reads
// garbage that shows: tests set it to hold the ownership rules to the bits.
var PoisonReleased atomic.Bool

// Get returns a vector of n elements, one taken back if there is any (nil
// for n = 0).
func (l *Lender[T]) Get(n int) []T {
	if n == 0 {
		return nil
	}
	if l != nil {
		l.mu.Lock()
		fs := l.free[n]
		if k := len(fs) - 1; k >= 0 {
			v := fs[k]
			fs[k] = nil
			l.free[n] = fs[:k]
			l.mu.Unlock()
			return v
		}
		l.mu.Unlock()
	}
	return make([]T, n)
}

// GetZeroed is Get with the vector cleared.
func (l *Lender[T]) GetZeroed(n int) []T {
	v := l.Get(n)
	clear(v)
	return v
}

// Clone returns a copy of src in a vector from the lender (nil for an empty
// src).
func (l *Lender[T]) Clone(src []T) []T {
	v := l.Get(len(src))
	copy(v, src)
	return v
}

// Hold counts one more message that carries v by reference.
func (l *Lender[T]) Hold(v []T) {
	if l == nil || len(v) == 0 {
		return
	}
	l.mu.Lock()
	if l.holds == nil {
		l.holds = make(map[*T]int)
	}
	l.holds[&v[0]]++
	l.mu.Unlock()
}

// Release lets go of one hold on v, and takes v back when it was the last.
func (l *Lender[T]) Release(v []T) {
	if l == nil || len(v) == 0 {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	k := &v[0]
	switch n := l.holds[k]; {
	case n > 1:
		l.holds[k] = n - 1
	case n == 1:
		delete(l.holds, k)
		l.takeBack(v)
	}
}

// Put takes v back, whoever held it. The caller must not use v afterwards.
func (l *Lender[T]) Put(v []T) {
	if l == nil || len(v) == 0 {
		return
	}
	l.mu.Lock()
	l.takeBack(v)
	l.mu.Unlock()
}

// takeBack files v under its length. l.mu is held.
func (l *Lender[T]) takeBack(v []T) {
	if PoisonReleased.Load() {
		switch p := any(v).(type) {
		case []float32:
			nan := float32(math.NaN())
			for i := range p {
				p[i] = nan
			}
		case []byte:
			for i := range p {
				p[i] = 0xFF
			}
		}
	}
	if l.free == nil {
		l.free = make(map[int][][]T)
	}
	l.free[len(v)] = append(l.free[len(v)], v)
}

// DropEachCycle makes l forget every vector it keeps and every hold after
// each garbage-collection cycle — the finalizer of an object nothing
// references (too big for the tiny allocator) — so that what a process
// stopped using is freed by the cycle after.
func (l *Lender[T]) DropEachCycle() {
	runtime.SetFinalizer(new([64]byte), func(*[64]byte) {
		l.mu.Lock()
		clear(l.free)
		clear(l.holds)
		l.mu.Unlock()
		l.DropEachCycle()
	})
}

// GetTensor returns a tensor of the given shape whose storage comes from a
// float32 lender (an Arena). Contents are unspecified; callers must fully
// overwrite the data.
func (l *Lender[T]) GetTensor(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d <= 0 {
			panic("tensor: non-positive dim in arena shape")
		}
		n *= d
	}
	return &Tensor{Shape: append([]int(nil), shape...), Data: any(l.Get(n)).([]float32)}
}

// PutTensor takes t's storage back into a float32 lender. nil tensors are
// ignored; t must not be used afterwards.
func (l *Lender[T]) PutTensor(t *Tensor) {
	if t == nil {
		return
	}
	l.Put(any(t.Data).([]T))
	t.Data = nil
}
