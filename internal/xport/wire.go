package xport

import (
	"encoding/binary"
	"math/bits"
	"runtime"
	"sync"
	"unsafe"
)

// hostLE reports whether this machine stores integers the way the wire
// does. On such a host an []int32 or []float32 already is its own wire
// encoding and the codec moves it as bytes; elsewhere wire32 and fromWire32
// fall back to per-element conversion.
var hostLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// rawBytes views s as the bytes of its backing array, in host order.
func rawBytes[T int8 | int32 | float32](s []T) []byte {
	var elem T
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), int(unsafe.Sizeof(elem))*len(s))
}

// wire32 returns the little-endian wire bytes of s: s itself, viewed in
// place, on a little-endian host; an encoded copy otherwise.
func wire32[T int32 | float32](s []T) []byte {
	if hostLE {
		return rawBytes(s)
	}
	out := append([]byte(nil), rawBytes(s)...)
	swap32(out)
	return out
}

// fromWire32 converts s, whose backing bytes were just filled off the wire
// through rawBytes, to host order in place — nothing to do on a little-endian
// host.
func fromWire32[T int32 | float32](s []T) {
	if !hostLE {
		swap32(rawBytes(s))
	}
}

// swap32 reverses the byte order of every 4-byte element of b.
func swap32(b []byte) {
	for ; len(b) >= 4; b = b[4:] {
		b[0], b[1], b[2], b[3] = b[3], b[2], b[1], b[0]
	}
}

// The recycler. A ring AllReduce moves the same few megabyte-sized chunks
// round after round, and a parameter server receives one int8 gradient
// payload per worker-step; allocating each one fresh made the collector the
// busiest part of the data plane. ReadFrame draws every large Vec and Data
// section from a free list of its element type and size class, and
// Frame.Release hands them back — as a finished worker does with its
// gradient store and velocity, which the coordinator then decodes the DONE
// reports into. The lists are emptied after every collection cycle and the
// next cycle frees what they held, so an idle process gives the memory
// back; a frame that is never released is simply collected. One mutex per
// element type guards its lists, so a section put back on one thread is
// there for the next get on any other.

// minPooledBytes is the smallest section worth recycling; below it a plain
// allocation is cheaper than the pool round-trip.
const minPooledBytes = 64 << 10

// recycler pools slices of one element type by size class. A class is a
// capacity with only its top three bits set — four steps per octave, so a
// section get allocates is at most a quarter larger than asked for. A slice
// put back is filed under the largest class its capacity covers: a section
// get allocated under its own class, a vector of exact length (a model's
// gradient store) under the class below its length.
type recycler[T float32 | byte] struct {
	mu    sync.Mutex
	lists [4 * 64][][]T
}

var (
	vecs  recycler[float32]
	datas recycler[byte]
)

// sizeClass returns the smallest size class that holds n elements and its
// capacity.
func sizeClass(n int) (class, capacity int) {
	shift := bits.Len(uint(n)) - 3
	q := (n-1)>>shift + 1 // 4..8 quarter-octave steps
	return 4*shift + q - 4, q << shift
}

// minPooled is the smallest length, in elements, the recycler pools.
func (*recycler[T]) minPooled() int {
	var elem T
	return minPooledBytes / int(unsafe.Sizeof(elem))
}

// get returns a slice of n elements, recycled when n is large. Its contents
// are arbitrary: the caller overwrites all of it. It looks in n's class,
// where every slice holds n, then in the class below, whose slices hold n
// only when their capacity does (an exact-length vector of n files there).
func (r *recycler[T]) get(n int) []T {
	switch {
	case n == 0:
		return nil
	case n < r.minPooled():
		return make([]T, n)
	}
	class, capacity := sizeClass(n)
	r.mu.Lock()
	s := r.take(class, n)
	if s == nil && capacity != n {
		s = r.take(class-1, n)
	}
	r.mu.Unlock()
	if s == nil {
		return make([]T, n, capacity)
	}
	return s[:n]
}

// take removes and returns the slice last filed under class c whose
// capacity holds n, or nil when none does. r.mu is held.
func (r *recycler[T]) take(c, n int) []T {
	l := r.lists[c]
	for i := len(l) - 1; i >= 0; i-- {
		if s := l[i]; cap(s) >= n {
			last := len(l) - 1
			l[i], l[last] = l[last], nil
			r.lists[c] = l[:last]
			return s
		}
	}
	return nil
}

// put takes s back, whatever its length, unless it is too small to pool.
func (r *recycler[T]) put(s []T) {
	if cap(s) < r.minPooled() {
		return
	}
	class, capacity := sizeClass(cap(s))
	if capacity != cap(s) {
		class--
	}
	r.mu.Lock()
	r.lists[class] = append(r.lists[class], s[:cap(s)])
	r.mu.Unlock()
}

// drop forgets every pooled slice, keeping the lists' own storage.
func (r *recycler[T]) drop() {
	r.mu.Lock()
	for c, l := range r.lists {
		clear(l)
		r.lists[c] = l[:0]
	}
	r.mu.Unlock()
}

// collected is the recyclers' tie to the collector: its finalizer runs
// after every collection cycle, drops what the recyclers hold — the next
// cycle frees it — and re-arms itself.
type collected struct{ _ [64]byte } // big enough to stay out of the tiny allocator

func init() { runtime.SetFinalizer(new(collected), onCollection) }

func onCollection(c *collected) {
	vecs.drop()
	datas.drop()
	runtime.SetFinalizer(c, onCollection)
}

// NewVec returns a Vec of n elements, recycled when n is large. Its
// contents are arbitrary: the caller overwrites all of it. ReadFrame fills
// received frames' Vecs from here; a receiver that expands a compressed
// payload into Vec does the same, so that Release recycles either kind.
func NewVec(n int) []float32 { return vecs.get(n) }

// Release returns f.Vec and f.Data to the recycler and clears them. Call it
// on a received frame once its sections have been consumed, or on any
// vector its owner is done with; after Release neither the frame nor any
// slice of its sections may be used. Releasing is optional — an unreleased
// section is ordinary garbage — and a section the recycler did not hand out
// is filed by its capacity like one it did.
func (f *Frame) Release() {
	vecs.put(f.Vec)
	datas.put(f.Data)
	f.Vec, f.Data = nil, nil
}
