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
	kindParams      = uint16(ps.Params)
	kindPull        = uint16(ps.Pull)
	kindAck         = uint16(ps.Ack)
	kindEASGDPush   = uint16(ps.Push)
	kindEASGDReply  = uint16(ps.PushReply)
	kindAllReduce   = uint16(core.KindAllReduce)
	kindGossip      = uint16(core.KindGossip)
	kindExchangeReq = uint16(core.KindExchangeReq)
	kindExchangeRep = uint16(core.KindExchangeReply)
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
// next-round chunk, a straggler's late gossip — is parked instead of
// dropped. A mailbox has exactly one owning goroutine; it is not safe for
// concurrent use.
type mailbox struct {
	ep    xport.Endpoint
	stash []xport.Frame
	// sent is the seconds spent inside Endpoint.Send so far — frame encode,
	// CRC and socket write: the network time a step books.
	sent float64
}

func newMailbox(ep xport.Endpoint) *mailbox { return &mailbox{ep: ep} }

// send ships f to rank to, timing the Send.
func (mb *mailbox) send(to int, f *xport.Frame) error {
	t0 := time.Now()
	err := mb.ep.Send(to, f)
	mb.sent += time.Since(t0).Seconds()
	return err
}

// recv returns the oldest stashed frame, or blocks on the endpoint.
func (mb *mailbox) recv(timeout time.Duration) (xport.Frame, error) {
	if len(mb.stash) > 0 {
		f := mb.stash[0]
		mb.stash = mb.stash[1:]
		return f, nil
	}
	return mb.ep.Recv(timeout)
}

// match reports whether f is the frame recvMatch is waiting for.
func match(f xport.Frame, kind uint16, clock, seg int32) bool {
	return f.Kind == kind && f.Clock == clock && f.Seg == seg
}

// recvMatch returns the first frame (stash first, then the wire) with the
// given kind, clock and seg — the collectives use seg to separate chunks and
// phases; every PS and control frame carries 0. Non-matching frames are
// stashed in arrival order. The timeout covers the whole wait.
func (mb *mailbox) recvMatch(kind uint16, clock, seg int32, timeout time.Duration) (xport.Frame, error) {
	for i, f := range mb.stash {
		if match(f, kind, clock, seg) {
			mb.stash = append(mb.stash[:i], mb.stash[i+1:]...)
			return f, nil
		}
	}
	deadline := time.Now().Add(timeout)
	for remain := timeout; remain > 0; remain = time.Until(deadline) {
		f, err := mb.ep.Recv(remain)
		if errors.Is(err, xport.ErrTimeout) {
			break
		}
		if err != nil {
			return xport.Frame{}, err
		}
		if match(f, kind, clock, seg) {
			return f, nil
		}
		mb.stash = append(mb.stash, f)
	}
	return xport.Frame{}, fmt.Errorf("live: timeout waiting for kind=%d clock=%d seg=%d: %w",
		kind, clock, seg, xport.ErrTimeout)
}

// poll performs a short non-blocking-ish receive: it drains the stash
// first, then gives the endpoint one brief window. Returns ok=false when
// nothing arrived — the asynchronous drains (GoSGD gossip, SSP acks) call
// this between iterations.
func (mb *mailbox) poll() (xport.Frame, bool, error) {
	f, err := mb.recv(200 * time.Microsecond)
	if errors.Is(err, xport.ErrTimeout) {
		return xport.Frame{}, false, nil
	}
	if err != nil {
		return xport.Frame{}, false, err
	}
	return f, true, nil
}
