package xport

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// ErrClosed is returned by Send and Recv after an endpoint is closed.
var ErrClosed = errors.New("xport: endpoint closed")

// ErrTimeout is returned by Recv when no frame arrives within the deadline.
var ErrTimeout = errors.New("xport: recv timeout")

// Endpoint is one rank's connection to the rest of the mesh. Send delivers
// a frame to a peer rank; Recv takes the next inbound frame from any peer.
// Both are safe for concurrent use. Implementations: ChanNet (in-process)
// and TCPNet (real sockets).
type Endpoint interface {
	// Rank is this endpoint's position in the mesh.
	Rank() int
	// Size is the number of ranks in the mesh.
	Size() int
	// Send delivers f to peer rank `to`. It blocks until the frame's bytes
	// are handed to the transport (socket write or channel hand-off) and
	// returns an error if the peer is unreachable after bounded retry. Send
	// reads f's slices where they lie and never retains them: once it
	// returns, the caller may overwrite or reuse Idx, Vec and Data.
	Send(to int, f *Frame) error
	// Recv returns the next inbound frame. timeout <= 0 means block
	// forever; on expiry it returns ErrTimeout. The frame's slices belong
	// to the receiver alone; Frame.Release hands a consumed Vec back.
	Recv(timeout time.Duration) (Frame, error)
	// Close releases the endpoint; blocked Recvs return ErrClosed.
	Close() error
}

// inboxCap bounds each endpoint's inbound queue. Deep enough that
// fire-and-forget algorithms (GoSGD pushes, AD-PSGD requests) never stall a
// sender in any test-scale run; a full inbox applies backpressure rather
// than dropping.
const inboxCap = 1024

// ChanNet is an in-process mesh of endpoints connected by Go channels.
// Every frame still round-trips through the binary codec, so the channel
// backend exercises exactly the encoding the TCP backend puts on the wire —
// only the socket layer is skipped.
type ChanNet struct {
	eps []*chanEndpoint
}

// NewChanNet builds a fully connected in-process mesh of n endpoints.
func NewChanNet(n int) *ChanNet {
	net := &ChanNet{eps: make([]*chanEndpoint, n)}
	for i := range net.eps {
		net.eps[i] = &chanEndpoint{
			net:    net,
			rank:   i,
			inbox:  make(chan Frame, inboxCap),
			closed: make(chan struct{}),
		}
	}
	return net
}

// Endpoint returns rank i's endpoint.
func (n *ChanNet) Endpoint(i int) Endpoint { return n.eps[i] }

type chanEndpoint struct {
	net   *ChanNet
	rank  int
	inbox chan Frame

	closeOnce sync.Once
	closed    chan struct{}
}

func (e *chanEndpoint) Rank() int { return e.rank }
func (e *chanEndpoint) Size() int { return len(e.net.eps) }

func (e *chanEndpoint) Send(to int, f *Frame) error {
	if to < 0 || to >= len(e.net.eps) {
		return fmt.Errorf("xport: send to rank %d outside mesh of %d", to, len(e.net.eps))
	}
	// Round-trip through the codec so the channel backend catches any
	// frame that would not survive the wire.
	g, err := DecodeFrame(f.AppendEncode(nil), 0)
	if err != nil {
		return fmt.Errorf("xport: frame failed codec round-trip: %w", err)
	}
	peer := e.net.eps[to]
	// A select with a ready channel and a closed channel picks randomly;
	// check for an already-closed peer first so the error is deterministic.
	select {
	case <-peer.closed:
		return fmt.Errorf("xport: send to rank %d: %w", to, ErrClosed)
	default:
	}
	select {
	case <-e.closed:
		return ErrClosed
	case <-peer.closed:
		return fmt.Errorf("xport: send to rank %d: %w", to, ErrClosed)
	case peer.inbox <- g:
		return nil
	}
}

func (e *chanEndpoint) Recv(timeout time.Duration) (Frame, error) {
	if timeout <= 0 {
		select {
		case f := <-e.inbox:
			return f, nil
		case <-e.closed:
			return Frame{}, ErrClosed
		}
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case f := <-e.inbox:
		return f, nil
	case <-e.closed:
		return Frame{}, ErrClosed
	case <-t.C:
		return Frame{}, ErrTimeout
	}
}

func (e *chanEndpoint) Close() error {
	e.closeOnce.Do(func() { close(e.closed) })
	return nil
}
