package core

import "slices"

// Mailbox is a worker's one receive on both runtimes: it waits for the first
// message of a kind, clock and seg and parks what arrives before it — a fast
// peer's next-round chunk, a request that lands mid-exchange — for a later
// receive. The runtime supplies only where arrivals come from. The zero value
// is empty; a Mailbox is not safe for concurrent use.
type Mailbox struct{ parked []Msg }

// Recv returns the first parked message of the given kind, clock and seg (any
// may be Any), in arrival order, or else the first that take delivers,
// parking every other. When take reports ok = false or an error, Recv
// returns what take did.
func (mb *Mailbox) Recv(kind, clock, seg int, take func() (Msg, bool, error)) (m Msg, ok bool, err error) {
	for i := range mb.parked {
		if mb.parked[i].is(kind, clock, seg) {
			m = mb.parked[i]
			mb.parked = slices.Delete(mb.parked, i, i+1)
			return m, true, nil
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
