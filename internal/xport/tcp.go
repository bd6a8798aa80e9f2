package xport

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"disttrain/internal/rng"
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

// KillWindow kills the sender's connection to a peer (before a write, with
// probability Prob per send) while the wall clock is inside [From, To) of
// the fault epoch. The frame itself is then written on a fresh connection,
// so kills exercise the redial path without losing messages.
type KillWindow struct {
	From, To time.Duration
	Prob     float64
}

// DelayWindow injects latency before every send while inside [From, To):
// the fixed Delay plus, when Factor > 1, (Factor-1) times the plan's slow
// unit — the projection of a simulator slowdown factor onto concrete wall
// time.
type DelayWindow struct {
	From, To time.Duration
	Delay    time.Duration
	Factor   float64
}

// PartitionWindow isolates the ranks in Side from the rest of the mesh
// while inside [From, To): a send crossing the cut first severs the cached
// connection, then blocks until the window closes — TCP loses no
// acknowledged bytes, so a live partition delays traffic rather than
// dropping it.
type PartitionWindow struct {
	From, To time.Duration
	Side     []int
}

// separates reports whether ranks a and b are on opposite sides of the cut.
func (w *PartitionWindow) separates(a, b int) bool {
	var inA, inB bool
	for _, r := range w.Side {
		if r == a {
			inA = true
		}
		if r == b {
			inB = true
		}
	}
	return inA != inB
}

// DefaultSlowUnit is the injected latency per slowdown unit (Factor-1) when
// a FaultPlan does not set its own SlowUnit.
const DefaultSlowUnit = 10 * time.Millisecond

// FaultPlan is the live-path projection of a fault schedule: connection
// kills, send latency, and rank partitions, all windowed on wall time since
// SetEpoch. The kill coin-flips are drawn from a seeded stream so a given
// plan behaves comparably across runs (wall-clock timing still varies).
type FaultPlan struct {
	Seed uint64
	// SlowUnit is the latency one slowdown unit (Factor-1) maps onto; 0
	// means DefaultSlowUnit.
	SlowUnit   time.Duration
	Kills      []KillWindow
	Delays     []DelayWindow
	Partitions []PartitionWindow
}

// slowUnit resolves the configured slow unit, applying the default.
func (p *FaultPlan) slowUnit() time.Duration {
	if p.SlowUnit > 0 {
		return p.SlowUnit
	}
	return DefaultSlowUnit
}

// delayFor is the total injected latency of one delay window: the fixed
// delay plus the factor-scaled slow unit.
func (w *DelayWindow) delayFor(unit time.Duration) time.Duration {
	d := w.Delay
	if w.Factor > 1 {
		d += time.Duration((w.Factor - 1) * float64(unit))
	}
	return d
}

// Stats counts transport-level events; read a snapshot via TCPNet.Stats.
type Stats struct {
	FramesSent, FramesRecv int64
	BytesSent, BytesRecv   int64
	Redials, Kills         int64
	DelayNanos             int64
	// Partitioned counts sends that blocked on an active partition window.
	Partitioned int64
}

// TCPNet is an Endpoint over real TCP sockets: one listener per rank, a
// lazily dialed outbound connection per peer, and an accept loop that
// merges every inbound stream into one Recv queue.
type TCPNet struct {
	rank int
	size int

	ln    net.Listener
	inbox chan Frame

	mu    sync.Mutex // guards conns
	conns []net.Conn // outbound, lazily dialed, indexed by peer rank
	peers []string   // peer addresses, indexed by rank

	faultMu  sync.Mutex
	plan     *FaultPlan
	epoch    time.Time
	faultRNG *rng.RNG

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
	t := &TCPNet{
		rank:   rank,
		size:   n,
		ln:     ln,
		inbox:  make(chan Frame, inboxCap),
		conns:  make([]net.Conn, n),
		closed: make(chan struct{}),
	}
	go t.acceptLoop()
	return t, nil
}

// Addr is the listener's resolved address (for rendezvous exchange).
func (t *TCPNet) Addr() string { return t.ln.Addr().String() }

// SetPeers installs the rank → address table. Must be called before the
// first Send; addrs[t.Rank()] is ignored.
func (t *TCPNet) SetPeers(addrs []string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.peers = append([]string(nil), addrs...)
}

// SetFaults installs a fault plan whose windows are measured from epoch.
// Pass a nil plan to clear.
func (t *TCPNet) SetFaults(plan *FaultPlan, epoch time.Time) {
	t.faultMu.Lock()
	defer t.faultMu.Unlock()
	t.plan = plan
	t.epoch = epoch
	if plan != nil {
		t.faultRNG = rng.New(plan.Seed ^ 0x11feed*uint64(t.rank+1))
	}
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
func (t *TCPNet) Size() int { return t.size }

func (t *TCPNet) Send(to int, f *Frame) error {
	if to < 0 || to >= t.size {
		return fmt.Errorf("xport: send to rank %d outside mesh of %d", to, t.size)
	}
	select {
	case <-t.closed:
		return ErrClosed
	default:
	}
	t.applyFaults(to)
	var lastErr error
	for attempt := 0; attempt < writeAttempts; attempt++ {
		conn, err := t.peerConn(to)
		if err != nil {
			return err
		}
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		// One vectored write per frame; the socket's write lock covers all of
		// it, so concurrent senders to one peer cannot interleave.
		if lastErr = WriteFrame(conn, f); lastErr == nil {
			t.stats.framesSent.Add(1)
			t.stats.bytesSent.Add(int64(f.EncodedLen()))
			return nil
		}
		t.dropConn(to, conn)
		t.stats.redials.Add(1)
	}
	return fmt.Errorf("xport: send to rank %d failed after %d attempts: %w", to, writeAttempts, lastErr)
}

// applyFaults runs the send through the active fault plan: a partition
// block first (sever the cached connection, then wait out the window),
// injected latency next, then a possible connection kill. The kill closes
// the outbound conn so the frame that follows is written on a redialed one
// — the message is never lost, the reconnect machinery is what gets
// exercised.
func (t *TCPNet) applyFaults(to int) {
	t.faultMu.Lock()
	plan, epoch := t.plan, t.epoch
	var kill bool
	if plan != nil {
		since := time.Since(epoch)
		for i := range plan.Partitions {
			w := &plan.Partitions[i]
			if since >= w.From && since < w.To && w.separates(t.rank, to) {
				remain := w.To - since
				t.faultMu.Unlock()
				t.DropPeer(to)
				t.stats.partitioned.Add(1)
				time.Sleep(remain)
				t.faultMu.Lock()
				since = time.Since(epoch)
			}
		}
		unit := plan.slowUnit()
		for i := range plan.Delays {
			w := &plan.Delays[i]
			if d := w.delayFor(unit); since >= w.From && since < w.To && d > 0 {
				t.faultMu.Unlock()
				time.Sleep(d)
				t.stats.delayNanos.Add(int64(d))
				t.faultMu.Lock()
				since = time.Since(epoch)
			}
		}
		for _, w := range plan.Kills {
			if since >= w.From && since < w.To && t.faultRNG.Bernoulli(w.Prob) {
				kill = true
			}
		}
	}
	t.faultMu.Unlock()
	if kill {
		t.mu.Lock()
		if c := t.conns[to]; c != nil {
			c.Close()
			t.conns[to] = nil
			t.stats.kills.Add(1)
		}
		t.mu.Unlock()
	}
}

// DropPeer discards the cached outbound connection to a peer so the next
// send redials. Callers that know a peer restarted (and so holds a fresh
// listener on the same address) use this to keep a write from landing on a
// half-closed socket and being silently lost.
func (t *TCPNet) DropPeer(to int) {
	if to < 0 || to >= t.size {
		return
	}
	t.mu.Lock()
	if c := t.conns[to]; c != nil {
		c.Close()
		t.conns[to] = nil
	}
	t.mu.Unlock()
}

// peerConn returns the outbound connection to a peer, dialing it if absent.
// Dial retries cover the rendezvous window where peers start concurrently.
func (t *TCPNet) peerConn(to int) (net.Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.conns[to]; c != nil {
		return c, nil
	}
	if t.peers == nil {
		return nil, fmt.Errorf("xport: rank %d has no peer table (SetPeers not called)", t.rank)
	}
	addr := t.peers[to]
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		select {
		case <-t.closed:
			return nil, ErrClosed
		default:
		}
		c, err := net.DialTimeout("tcp", addr, dialTimeout)
		if err == nil {
			if tc, ok := c.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			t.conns[to] = c
			return c, nil
		}
		lastErr = err
		time.Sleep(dialBackoff)
	}
	return nil, fmt.Errorf("xport: dial rank %d (%s): %w", to, addr, lastErr)
}

// dropConn discards a broken outbound connection so the next attempt
// redials — but only if it is still the registered one (a concurrent
// sender may already have replaced it).
func (t *TCPNet) dropConn(to int, c net.Conn) {
	t.mu.Lock()
	if t.conns[to] == c {
		c.Close()
		t.conns[to] = nil
	}
	t.mu.Unlock()
}

func (t *TCPNet) Recv(timeout time.Duration) (Frame, error) {
	if timeout <= 0 {
		select {
		case f := <-t.inbox:
			return f, nil
		case <-t.closed:
			return Frame{}, ErrClosed
		}
	}
	tm := time.NewTimer(timeout)
	defer tm.Stop()
	select {
	case f := <-t.inbox:
		return f, nil
	case <-t.closed:
		return Frame{}, ErrClosed
	case <-tm.C:
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
// inbox. A decode error or peer disconnect ends the stream; the peer's
// sender redials, producing a fresh inbound connection.
func (t *TCPNet) readLoop(conn net.Conn) {
	defer conn.Close()
	// The buffer turns a small frame's header and sections into one read
	// syscall; a large section bypasses it and lands in its slice directly.
	r := bufio.NewReaderSize(conn, 16<<10)
	for {
		f, err := ReadFrame(r, MaxFrameBytes)
		if err != nil {
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

// Close shuts the listener and all connections; pending Recvs get
// ErrClosed.
func (t *TCPNet) Close() error {
	t.closeOnce.Do(func() {
		close(t.closed)
		t.ln.Close()
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
