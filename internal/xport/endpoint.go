package xport

import (
	"bytes"
	"errors"
	"fmt"
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
// Both are safe for concurrent use. Implementations: ChanNet (in-process)
// and TCPNet (real sockets).
type Endpoint interface {
	// Rank is this endpoint's position in the mesh.
	Rank() int
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
	// Post posts p.Vec for the next frame with p's From, Kind, Clock and Vec
	// length, which is decoded into it (or fails as Recv's error); the Vec
	// stays the poster's. A new post replaces one no frame claimed.
	Post(p *Frame)
	// Withdraw takes the post back, atomically against the frame that would
	// claim it, and reports whether none had: if one had, it, or its error,
	// is on its way through Recv and may still be writing the Vec.
	Withdraw() bool
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
	postBox
	net   *ChanNet
	rank  int
	inbox chan Frame

	closeOnce sync.Once
	closed    chan struct{}
}

func (e *chanEndpoint) Rank() int { return e.rank }

func (e *chanEndpoint) Send(to int, f *Frame) error {
	if to < 0 || to >= len(e.net.eps) {
		return fmt.Errorf("xport: send to rank %d outside mesh of %d", to, len(e.net.eps))
	}
	// Round-trip through the codec so the channel backend catches any
	// frame that would not survive the wire; one the peer posted for is
	// decoded into its destination. A fresh encoding can fail only on its
	// length, before any post is claimed.
	peer := e.net.eps[to]
	g, err := readFrame(bytes.NewReader(f.AppendEncode(nil)), 0, &peer.postBox)
	if err != nil {
		return fmt.Errorf("xport: frame failed codec round-trip: %w", err)
	}
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
	return recv(e.inbox, e.closed, timeout)
}

// recv is both endpoints' Recv over their inbox: a frame that claimed the
// post and failed to land comes out as its error.
func recv(inbox <-chan Frame, closed <-chan struct{}, timeout time.Duration) (Frame, error) {
	var expiry <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expiry = t.C
	}
	select {
	case f := <-inbox:
		return f, f.err
	case <-closed:
		return Frame{}, ErrClosed
	case <-expiry:
		return Frame{}, ErrTimeout
	}
}

func (e *chanEndpoint) Close() error {
	e.closeOnce.Do(func() { close(e.closed) })
	return nil
}
