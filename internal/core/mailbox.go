package core

import (
	"math"
	"slices"
)

// Mailbox is a worker's one receive on both runtimes: it waits for the first
// message of a kind, clock and seg and parks what arrives before it — a fast
// peer's next-round chunk, a request that lands mid-exchange — for a later
// receive. The runtime supplies only where arrivals come from, as messages it
// owns; the mailbox moves pointers and copies none. The zero value is empty;
// a Mailbox is not safe for concurrent use.
type Mailbox struct{ parked []*Msg }

// Recv returns the first parked message of the given kind, clock and seg (any
// may be Any), in arrival order, or else the first that take delivers,
// parking every other. When take reports ok = false or an error, Recv
// returns what take did.
func (mb *Mailbox) Recv(kind, clock, seg int, take func() (*Msg, bool, error)) (m *Msg, ok bool, err error) {
	for i, p := range mb.parked {
		if p.is(kind, clock, seg) {
			mb.parked = slices.Delete(mb.parked, i, i+1)
			return p, true, nil
		}
	}
	for {
		if m, ok, err = take(); !ok || err != nil || m.is(kind, clock, seg) {
			return
		}
		mb.parked = append(mb.parked, m)
	}
}

// is reports whether m is of the given kind, clock and seg (any may be Any).
func (m *Msg) is(kind, clock, seg int) bool {
	return (kind == Any || m.Kind == kind) && (clock == Any || m.Clock == clock) && (seg == Any || m.Seg == seg)
}

// Msgs is a free list of messages, so that a runtime hands its receiver a
// message without allocating one: the simulator's senders take each
// message's storage from their run's list and its receivers give it back,
// and live's receive takes each frame's from its worker's. The zero value is
// empty; Msgs is not safe for concurrent use.
type Msgs struct{ free []*Msg }

// msgSlab is how many messages Msgs allocates at once when it runs dry: a
// run whose messages pile up in flight (SSP's updates queued at the shards)
// then costs one allocation per slab, not one per message.
const msgSlab = 32

// New returns a zeroed message, a freed one if there is any.
func (l *Msgs) New() *Msg {
	if len(l.free) == 0 {
		slab := make([]Msg, msgSlab)
		for i := range slab {
			l.free = append(l.free, &slab[i])
		}
	}
	n := len(l.free) - 1
	m := l.free[n]
	l.free = l.free[:n]
	return m
}

// Free zeroes m, dropping what it references, and keeps it for New.
func (l *Msgs) Free(m *Msg) {
	*m = Msg{}
	l.free = append(l.free, m)
}

// Vecs is a run's free list of vectors, so that the simulator moves whole
// parameter vectors — parameter-server replies and requests, gossip and
// exchange payloads — and collective chunks without allocating one per
// message. A vector it hands out is unheld; every simulated message that
// carries it by reference holds it once (Hold), and the Release that lets go
// of its last hold gives it back for the next Get or Clone of its length. A
// vector no message carries goes to the garbage collector like any other;
// one whose message the network drops stays held until the run ends.
// Release leaves a vector nothing holds alone. A nil *Vecs's Clone is a
// plain copy: a replica outside the simulator has no list. The zero value
// is empty; Vecs is not safe for concurrent use.
type Vecs struct {
	free  map[int][][]float32 // the released vectors, by length
	holds map[*float32]int    // the holds on each held vector, by its first element
}

// poisonReleased makes Release fill every vector the list takes back with
// NaNs, so that a reader who kept one past its release reads garbage that
// shows: tests set it to hold the ownership rules to the bits.
var poisonReleased bool

// Get returns a vector of n elements, a released one if there is any, its
// contents unspecified.
func (l *Vecs) Get(n int) []float32 {
	if fs := l.free[n]; len(fs) > 0 {
		k := len(fs) - 1
		v := fs[k]
		fs[k] = nil
		l.free[n] = fs[:k]
		return v
	}
	return make([]float32, n)
}

// Clone returns a copy of src in a vector from the list (nil for an empty
// src).
func (l *Vecs) Clone(src []float32) []float32 {
	if l == nil || len(src) == 0 || len(l.free[len(src)]) == 0 {
		return slices.Clone(src)
	}
	v := l.Get(len(src))
	copy(v, src)
	return v
}

// Hold counts one more message that carries v by reference.
func (l *Vecs) Hold(v []float32) {
	if len(v) == 0 {
		return
	}
	if l.holds == nil {
		l.holds = make(map[*float32]int)
	}
	l.holds[&v[0]]++
}

// Release lets go of one hold on v, and gives v back to the list when it
// was the last. A vector nothing holds is left alone.
func (l *Vecs) Release(v []float32) {
	if len(v) == 0 {
		return
	}
	k := &v[0]
	n, ok := l.holds[k]
	if !ok {
		return
	}
	if n > 1 {
		l.holds[k] = n - 1
		return
	}
	delete(l.holds, k)
	if poisonReleased {
		nan := float32(math.NaN())
		for i := range v {
			v[i] = nan
		}
	}
	if l.free == nil {
		l.free = make(map[int][][]float32)
	}
	l.free[len(v)] = append(l.free[len(v)], v)
}
