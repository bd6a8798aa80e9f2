package live

import (
	"errors"
	"fmt"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/ps"
	"disttrain/internal/xport"
)

// Data-plane frame kinds: ps's and core's message kinds, so a packet capture
// of a live run reads against the simulator's message taxonomy and the
// server converts with a cast.
const (
	kindGrad        = uint16(ps.Grad)
	kindAllReduce   = uint16(core.KindAllReduce)
	kindLocalGather = uint16(core.KindLocalGather)
	kindLocalBcast  = uint16(core.KindLocalBcast)
)

// Control-plane frame kinds, used on the rendezvous connection and for the
// mesh-level termination handshake. They start at 100 to stay disjoint
// from the data plane.
const (
	kindHello uint16 = 100 + iota
	kindAssign
	kindAddr
	kindPeers
	kindReady
	kindStart
	kindDone
	kindBye
	// kindHeartbeat renews a worker's liveness lease with the coordinator
	// (Clock carries the worker's latest completed iteration).
	kindHeartbeat
	// kindRejoin is a restarted worker's re-admission request (From = its
	// original rank, Data = the config fingerprint).
	kindRejoin
	// kindRejoinOK re-admits a rejoining worker (Data = the peer address
	// list, Aux = seconds elapsed since the run's START barrier so the
	// worker can re-anchor its fault-plan clock).
	kindRejoinOK
)

// mailbox wraps an Endpoint with a stash so protocol loops can wait for a
// specific (kind, clock, seg) while out-of-order traffic — a fast peer's
// next-round chunk, a request that arrives mid-exchange — is parked instead
// of dropped. A mailbox has exactly one owning goroutine; it is not safe for
// concurrent use.
type mailbox struct {
	ep    xport.Endpoint
	stash []xport.Frame
	// sent is the seconds spent inside Endpoint.Send so far — frame encode,
	// CRC and socket write: the network time a step books.
	sent float64
}

// send ships f to rank to, timing the Send.
func (mb *mailbox) send(to int, f *xport.Frame) error {
	t0 := time.Now()
	err := mb.ep.Send(to, f)
	mb.sent += time.Since(t0).Seconds()
	return err
}

// anyField, as a receive's kind, clock or seg, matches every frame.
const anyField int32 = -1

// pollWindow is how long a Poll gives the endpoint: the asynchronous drains
// (GoSGD gossip, SSP acks) poll between iterations.
const pollWindow = 200 * time.Microsecond

// match reports whether f is what a receive waits for.
func match(f *xport.Frame, kind, clock, seg int32) bool {
	return (kind == anyField || int32(f.Kind) == kind) &&
		(clock == anyField || f.Clock == clock) && (seg == anyField || f.Seg == seg)
}

// recv returns the first frame — stash first, then the wire — with the given
// kind, clock and seg (the collectives use seg to separate chunks and
// phases); non-matching frames are stashed in arrival order. A Poll gives the
// endpoint one brief window and reports ok = false when nothing came, Serve
// waits until the endpoint closes, and any other wait gives up after
// recvTimeout with an error.
func (mb *mailbox) recv(kind, clock, seg int32, wait core.Wait) (xport.Frame, bool, error) {
	for i := range mb.stash {
		if match(&mb.stash[i], kind, clock, seg) {
			f := mb.stash[i]
			mb.stash = append(mb.stash[:i], mb.stash[i+1:]...)
			return f, true, nil
		}
	}
	timeout := recvTimeout
	switch wait {
	case core.Poll:
		timeout = pollWindow
	case core.Serve:
		timeout = 0 // block
	}
	for deadline := time.Now().Add(timeout); ; {
		remain := time.Until(deadline)
		if timeout == 0 {
			remain = 0
		} else if remain <= 0 {
			break
		}
		f, err := mb.ep.Recv(remain)
		if errors.Is(err, xport.ErrTimeout) {
			break
		}
		if err != nil {
			return xport.Frame{}, false, err
		}
		if match(&f, kind, clock, seg) {
			return f, true, nil
		}
		mb.stash = append(mb.stash, f)
	}
	if wait == core.Poll {
		return xport.Frame{}, false, nil
	}
	return xport.Frame{}, false, fmt.Errorf("live: timeout waiting for kind=%d clock=%d seg=%d: %w",
		kind, clock, seg, xport.ErrTimeout)
}
