package xport

import (
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// ErrClosed is returned by Send and Recv after an endpoint is closed.
var ErrClosed = errors.New("xport: endpoint closed")

// ErrTimeout is returned by Recv when no frame arrives within the deadline.
var ErrTimeout = errors.New("xport: recv timeout")

// Endpoint is one rank's connection to the rest of the mesh. Send delivers
// a frame to a peer rank; Recv takes the next inbound frame from any peer.
// Both are safe for concurrent use. TCPNet implements it, over sockets or,
// in a ChanNet, over in-memory pipes.
type Endpoint interface {
	// Rank is this endpoint's position in the mesh.
	Rank() int
	// Send delivers f to peer rank `to`. It blocks until the frame's bytes
	// are handed to the transport (a socket write, or the peer's read of a
	// pipe) and returns an error if the peer is unreachable after bounded
	// retry. Send reads f's slices where they lie and never retains them:
	// once it returns, the caller may overwrite or reuse Idx, Vec and Data.
	Send(to int, f *Frame) error
	// Recv returns the next inbound frame. timeout <= 0 means block
	// forever; on expiry it returns ErrTimeout. The frame's slices belong
	// to the receiver alone; Frame.Release hands a consumed Vec back.
	Recv(timeout time.Duration) (Frame, error)
	// Post posts p.Vec for the next frame with p's From, Kind, Clock and Vec
	// length, which is decoded into it (or fails as Recv's error); the Vec
	// stays the poster's. A new post replaces one no frame claimed.
	Post(p *Frame)
	// Withdraw takes the post back, atomically against the frame that would
	// claim it, and reports whether none had: if one had, it, or its error,
	// is on its way through Recv and may still be writing the Vec.
	Withdraw() bool
	// Stats is a snapshot of the endpoint's transport counters.
	Stats() Stats
	// DropPeer discards the connection to a peer, so the next send redials.
	DropPeer(to int)
	// Close releases the endpoint; blocked Recvs return ErrClosed.
	Close() error
}

// postBox is an endpoint's side of Post and Withdraw: the one post, taken
// by whichever comes first of the frame that claims it and its withdrawal.
type postBox struct{ p atomic.Pointer[Frame] }

func (b *postBox) Post(p *Frame)  { b.p.Store(p) }
func (b *postBox) Withdraw() bool { return b.p.Swap(nil) != nil }

// claim takes the post and returns its Vec if the frame whose header f
// holds, with n Vec elements, is the one it is for; nil otherwise, which one
// atomic load decides for every other frame.
func (b *postBox) claim(f *Frame, n int) []float32 {
	if b == nil {
		return nil
	}
	p := b.p.Load()
	if p == nil || p.From != f.From || p.Kind != f.Kind || p.Clock != f.Clock || len(p.Vec) != n ||
		n == 0 || !b.p.CompareAndSwap(p, nil) {
		return nil
	}
	return p.Vec
}

// inboxCap bounds each endpoint's inbound queue. Deep enough that
// fire-and-forget algorithms (GoSGD pushes, AD-PSGD requests) never stall a
// sender in any test-scale run; a full inbox applies backpressure rather
// than dropping.
const inboxCap = 1024

// ChanNet is an in-process mesh: n TCPNets whose connections are in-memory
// pipes (net.Pipe) instead of sockets. Every frame takes TCP's Send, stream
// reader, posted receive, counters and fault plan; only the dial differs,
// and no rank listens.
type ChanNet struct {
	mu  sync.Mutex // guards eps
	eps []*TCPNet
}

// NewChanNet builds a fully connected in-process mesh of n endpoints.
func NewChanNet(n int) *ChanNet {
	c := &ChanNet{eps: make([]*TCPNet, n)}
	for i := range c.eps {
		c.eps[i] = newTCPNet(i, n, c.dial)
	}
	return c
}

// Endpoint returns rank i's endpoint, and a fresh one once that one is
// closed: a restarted incarnation, which its peers' sends then reach.
func (c *ChanNet) Endpoint(i int) Endpoint {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eps[i].isClosed() {
		c.eps[i] = newTCPNet(i, len(c.eps), c.dial)
	}
	return c.eps[i]
}

// dial connects to rank to's current endpoint by a pipe whose far end its
// stream reader takes. A closed endpoint is one not listening (yet), which
// the dial retry waits out as it waits for a socket.
func (c *ChanNet) dial(to int) (net.Conn, error) {
	c.mu.Lock()
	peer := c.eps[to]
	c.mu.Unlock()
	if peer.isClosed() {
		return nil, ErrClosed
	}
	near, far := net.Pipe()
	go peer.readLoop(far)
	return near, nil
}
