package core

import "slices"

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
