package xport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Tunables for connection management. Dial retry is generous because peers
// come up concurrently during rendezvous; write retry is bounded so a dead
// peer surfaces as an error instead of an infinite stall.
const (
	dialAttempts  = 40
	dialBackoff   = 100 * time.Millisecond
	dialTimeout   = 2 * time.Second
	writeAttempts = 3
	writeTimeout  = 30 * time.Second
)

// partitionPoll is how often a send stalled on a partition asks whether the
// cut has closed.
const partitionPoll = time.Millisecond

// Faults is the fault model a TCPNet's sends ask, in mesh ranks, at t wall
// seconds since the epoch SetFaults anchors. A send across a partition
// severs its connection and stalls until the cut closes; a cut (dropped)
// send kills its connection first and is written on a redialed one, so no
// frame is lost and the reconnect path is what gets exercised; a send slowed
// by a wire multiplier m sleeps (m-1) times its own measured write.
type Faults interface {
	// Partitioned reports whether a cut separates ranks from and to at t.
	Partitioned(t float64, from, to int) bool
	// Cut reports whether a send from→to at t is lost. It may draw from a
	// random stream, so a TCPNet asks it under its fault lock.
	Cut(t float64, from, to int) bool
	// Slow is the wire-time multiplier of a send from→to at t.
	Slow(t float64, from, to int) float64
}

// Stats counts transport-level events; read a snapshot via TCPNet.Stats.
type Stats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	Redials, Kills         int64
	// DelayNanos is the time degraded wires added to sends.
	DelayNanos int64
	// Partitioned counts sends that stalled on a partition.
	Partitioned int64
}

// Add folds o's counters into s.
func (s *Stats) Add(o Stats) {
	s.FramesSent += o.FramesSent
	s.FramesRecv += o.FramesRecv
	s.BytesSent += o.BytesSent
	s.BytesRecv += o.BytesRecv
	s.Redials += o.Redials
	s.Kills += o.Kills
	s.DelayNanos += o.DelayNanos
	s.Partitioned += o.Partitioned
}

// TCPNet is an Endpoint over connections: a lazily dialed outbound one per
// peer, and a stream reader per inbound one, all merging into one Recv
// queue. Over sockets (ListenTCP) each rank listens and dials its peers'
// addresses; in a ChanNet a dial is a pipe into the peer's reader.
type TCPNet struct {
	postBox
	rank int
	size int

	ln    net.Listener // nil in a ChanNet
	inbox chan Frame

	mu    sync.Mutex                     // guards conns, peers and dials
	conns []net.Conn                     // outbound, lazily dialed, indexed by peer rank
	peers []string                       // peer addresses, indexed by rank
	dial  func(to int) (net.Conn, error) // one attempt at a connection to a peer

	faultMu sync.Mutex
	faults  Faults
	epoch   time.Time

	closeOnce sync.Once
	closed    chan struct{}

	stats struct {
		framesSent, framesRecv atomic.Int64
		bytesSent, bytesRecv   atomic.Int64
		redials, kills         atomic.Int64
		delayNanos             atomic.Int64
		partitioned            atomic.Int64
	}
}

// ListenTCP creates rank's endpoint of an n-rank mesh, listening on addr
// (use "127.0.0.1:0" for an OS-assigned loopback port). Peer addresses
// arrive later via SetPeers — rendezvous distributes them — so Send before
// SetPeers fails.
func ListenTCP(rank, n int, addr string) (*TCPNet, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("xport: listen %s: %w", addr, err)
	}
	t := newTCPNet(rank, n, nil)
	t.ln, t.dial = ln, t.dialTCP
	go t.acceptLoop()
	return t, nil
}

// newTCPNet is rank's endpoint of an n-rank mesh whose connections dial
// opens.
func newTCPNet(rank, n int, dial func(int) (net.Conn, error)) *TCPNet {
	return &TCPNet{
		rank:   rank,
		size:   n,
		inbox:  make(chan Frame, inboxCap),
		conns:  make([]net.Conn, n),
		dial:   dial,
		closed: make(chan struct{}),
	}
}

// Addr is the listener's resolved address (for rendezvous exchange), or
// "chan" for a ChanNet's endpoint, which has none.
func (t *TCPNet) Addr() string {
	if t.ln == nil {
		return "chan"
	}
	return t.ln.Addr().String()
}

// SetPeers installs the rank → address table. Must be called before the
// first Send over sockets; addrs[t.Rank()] is ignored, and so is the whole
// table in a ChanNet.
func (t *TCPNet) SetPeers(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = append([]string(nil), addrs...)
}

// SetFaults installs the fault model the endpoint's sends ask, its clock
// anchored at epoch. Pass nil to clear.
func (t *TCPNet) SetFaults(f Faults, epoch time.Time) {
	t.faultMu.Lock()
	defer t.faultMu.Unlock()
	t.faults, t.epoch = f, epoch
}

// Stats returns a snapshot of the transport counters.
func (t *TCPNet) Stats() Stats {
	return Stats{
		FramesSent:  t.stats.framesSent.Load(),
		FramesRecv:  t.stats.framesRecv.Load(),
		BytesSent:   t.stats.bytesSent.Load(),
		BytesRecv:   t.stats.bytesRecv.Load(),
		Redials:     t.stats.redials.Load(),
		Kills:       t.stats.kills.Load(),
		DelayNanos:  t.stats.delayNanos.Load(),
		Partitioned: t.stats.partitioned.Load(),
	}
}

func (t *TCPNet) Rank() int { return t.rank }

func (t *TCPNet) Send(to int, f *Frame) error {
	if to < 0 || to >= t.size {
		return fmt.Errorf("xport: send to rank %d outside mesh of %d", to, t.size)
	}
	if t.isClosed() {
		return ErrClosed
	}
	slow := t.applyFaults(to)
	var lastErr error
	for attempt := 0; attempt < writeAttempts; attempt++ {
		conn, err := t.peerConn(to)
		if err != nil {
			return err
		}
		t0 := time.Now()
		conn.SetWriteDeadline(t0.Add(writeTimeout))
		// One vectored write per frame; the socket's write lock covers all of
		// it, so concurrent senders to one peer cannot interleave.
		if lastErr = WriteFrame(conn, f); lastErr == nil {
			t.stats.framesSent.Add(1)
			t.stats.bytesSent.Add(int64(f.EncodedLen()))
			if slow > 1 {
				d := time.Duration((slow - 1) * float64(time.Since(t0)))
				time.Sleep(d)
				t.stats.delayNanos.Add(int64(d))
			}
			return nil
		}
		t.dropConn(to, conn)
		t.stats.redials.Add(1)
	}
	return fmt.Errorf("xport: send to rank %d failed after %d attempts: %w", to, writeAttempts, lastErr)
}

// applyFaults runs the send to rank to through the fault model, if there is
// one, and returns the send's wire multiplier: a partition first (sever the
// cached connection, then wait the cut out), then a possible connection
// kill, so that the frame is written on a redialed connection.
func (t *TCPNet) applyFaults(to int) float64 {
	t.faultMu.Lock()
	f, epoch := t.faults, t.epoch
	t.faultMu.Unlock()
	if f == nil {
		return 1
	}
	since := func() float64 { return time.Since(epoch).Seconds() }
	if f.Partitioned(since(), t.rank, to) {
		t.DropPeer(to)
		t.stats.partitioned.Add(1)
		for f.Partitioned(since(), t.rank, to) {
			time.Sleep(partitionPoll)
		}
	}
	now := since()
	t.faultMu.Lock()
	kill := f.Cut(now, t.rank, to)
	t.faultMu.Unlock()
	if kill && t.dropConn(to, nil) {
		t.stats.kills.Add(1)
	}
	return f.Slow(now, t.rank, to)
}

// DropPeer discards the cached outbound connection to a peer so the next
// send redials. Callers that know a peer restarted (and so holds a fresh
// listener on the same address) use this to keep a write from landing on a
// half-closed socket and being silently lost.
func (t *TCPNet) DropPeer(to int) {
	if to >= 0 && to < t.size {
		t.dropConn(to, nil)
	}
}

// peerConn returns the outbound connection to a peer, dialing it if absent.
// Dial retries cover the rendezvous window where peers start concurrently,
// and a restarted peer's absence.
func (t *TCPNet) peerConn(to int) (net.Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.conns[to]; c != nil {
		return c, nil
	}
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if t.isClosed() {
			return nil, ErrClosed
		}
		c, err := t.dial(to)
		if err == nil {
			t.conns[to] = c
			return c, nil
		}
		lastErr = err
		time.Sleep(dialBackoff)
	}
	return nil, fmt.Errorf("xport: dial rank %d: %w", to, lastErr)
}

// dialTCP dials a peer's listener at its address in the peer table.
func (t *TCPNet) dialTCP(to int) (net.Conn, error) {
	if t.peers == nil {
		return nil, fmt.Errorf("rank %d has no peer table (SetPeers not called)", t.rank)
	}
	c, err := net.DialTimeout("tcp", t.peers[to], dialTimeout)
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return c, err
}

// isClosed reports whether Close has been called.
func (t *TCPNet) isClosed() bool {
	select {
	case <-t.closed:
		return true
	default:
		return false
	}
}

// dropConn closes and forgets the outbound connection to a peer, so that
// the next send redials, and reports whether there was one. A non-nil c is a
// broken connection, dropped only if it is still the registered one (a
// concurrent sender may already have replaced it).
func (t *TCPNet) dropConn(to int, c net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cur := t.conns[to]
	if cur == nil || c != nil && cur != c {
		return false
	}
	cur.Close()
	t.conns[to] = nil
	return true
}

// Recv takes the next frame off the inbox; one that claimed the post and
// failed to land comes out as its error.
func (t *TCPNet) Recv(timeout time.Duration) (Frame, error) {
	var expiry <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		expiry = tm.C
	}
	select {
	case f := <-t.inbox:
		return f, f.err
	case <-t.closed:
		return Frame{}, ErrClosed
	case <-expiry:
		return Frame{}, ErrTimeout
	}
}

func (t *TCPNet) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go t.readLoop(conn)
	}
}

// readLoop decodes frames off one inbound connection into the shared
// inbox, the posted one into its Vec. A decode error or peer disconnect ends
// the stream; the peer's sender redials, producing a fresh inbound
// connection. A frame lost that way is gone, unless it had claimed the post:
// it then goes to the poster with its error.
func (t *TCPNet) readLoop(conn net.Conn) {
	defer conn.Close()
	// The buffer turns a small frame's header and sections into one read
	// syscall; a large section bypasses it and lands in its slice directly.
	r := bufio.NewReaderSize(conn, 16<<10)
	for err := error(nil); err == nil; {
		var f Frame
		if f, err = readFrame(r, MaxFrameBytes, &t.postBox); err != nil && !f.posted {
			return
		}
		t.stats.framesRecv.Add(1)
		t.stats.bytesRecv.Add(int64(f.EncodedLen()))
		select {
		case t.inbox <- f:
		case <-t.closed:
			return
		}
	}
}

// Close shuts the listener and all outbound connections; pending Recvs get
// ErrClosed.
func (t *TCPNet) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		if t.ln != nil {
			t.ln.Close()
		}
		t.mu.Lock()
		for i, c := range t.conns {
			if c != nil {
				c.Close()
				t.conns[i] = nil
			}
		}
		t.mu.Unlock()
	})
	return nil
}
