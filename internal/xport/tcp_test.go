package xport

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"
)

// tcpMesh spins up an n-rank loopback mesh with peer tables installed.
func tcpMesh(t *testing.T, n int) []*TCPNet {
	t.Helper()
	eps := make([]*TCPNet, n)
	addrs := make([]string, n)
	for i := range eps {
		ep, err := ListenTCP(i, n, "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen rank %d: %v", i, err)
		}
		eps[i] = ep
		addrs[i] = ep.Addr()
		t.Cleanup(func() { ep.Close() })
	}
	for _, ep := range eps {
		ep.SetPeers(addrs)
	}
	return eps
}

func TestTCPBasicExchange(t *testing.T) {
	eps := tcpMesh(t, 2)
	want := Frame{Kind: 5, From: 0, Clock: 3, Vec: []float32{1, 2, 3}, Data: []byte("x")}
	if err := eps[0].Send(1, &want); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := eps[1].Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !framesEqual(got, want) {
		t.Fatalf("frame mismatch: got %+v want %+v", got, want)
	}
}

func TestTCPAllToAll(t *testing.T) {
	const n, per = 4, 25
	eps := tcpMesh(t, n)
	var wg sync.WaitGroup
	for i := range eps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < per; k++ {
				for j := range eps {
					if j == i {
						continue
					}
					f := Frame{Kind: 1, From: int32(i), Clock: int32(k), Vec: []float32{float32(i), float32(k)}}
					if err := eps[i].Send(j, &f); err != nil {
						t.Errorf("send %d->%d: %v", i, j, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	for i := range eps {
		seen := map[string]bool{}
		for k := 0; k < per*(n-1); k++ {
			f, err := eps[i].Recv(5 * time.Second)
			if err != nil {
				t.Fatalf("rank %d recv %d: %v", i, k, err)
			}
			key := fmt.Sprintf("%d/%d", f.From, f.Clock)
			if seen[key] {
				t.Fatalf("rank %d saw duplicate frame %s", i, key)
			}
			seen[key] = true
		}
	}
}

func TestTCPRecvTimeout(t *testing.T) {
	eps := tcpMesh(t, 2)
	if _, err := eps[0].Recv(30 * time.Millisecond); err != ErrTimeout {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

// linkFaults is a fault model for the test meshes: a cut before partUntil
// seconds, between the ranks in side and the rest when side is set and on
// every link otherwise; every send dropped if drop; wires slowed by slow
// before slowUntil seconds, or throughout when slowUntil is 0.
type linkFaults struct {
	partUntil float64
	side      []int
	drop      bool
	slow      float64
	slowUntil float64
}

func (f linkFaults) Partitioned(t float64, from, to int) bool {
	if t >= f.partUntil {
		return false
	}
	return f.side == nil || slices.Contains(f.side, from) != slices.Contains(f.side, to)
}

func (f linkFaults) Cut(t float64, from, to int) bool { return f.drop || f.Partitioned(t, from, to) }

func (f linkFaults) Slow(t float64, _, _ int) float64 {
	if f.slowUntil > 0 && t >= f.slowUntil {
		return 1
	}
	return f.slow
}

// sendTimed sends f from eps[from] to eps[to], receives it there, and
// returns how long the send took and the delay it added to the sender's
// Stats.DelayNanos.
func sendTimed(t *testing.T, eps []*TCPNet, from, to int, f *Frame) (elapsed, delay time.Duration) {
	t.Helper()
	before := eps[from].Stats().DelayNanos
	start := time.Now()
	if err := eps[from].Send(to, f); err != nil {
		t.Fatalf("send %d->%d: %v", from, to, err)
	}
	elapsed = time.Since(start)
	if _, err := eps[to].Recv(5 * time.Second); err != nil {
		t.Fatalf("recv %d->%d: %v", from, to, err)
	}
	return elapsed, time.Duration(eps[from].Stats().DelayNanos - before)
}

// TestTCPDelayWindow: a degraded wire delays the sends made while its
// window is open, counted in Stats.DelayNanos and spent inside Send, and
// none made after it closes.
func TestTCPDelayWindow(t *testing.T) {
	eps := tcpMesh(t, 2)
	const width = 50 * time.Millisecond
	eps[0].SetFaults(linkFaults{slow: 3, slowUntil: width.Seconds()}, time.Now())
	elapsed, delay := sendTimed(t, eps, 0, 1, &Frame{Kind: 1})
	if delay <= 0 {
		t.Fatalf("send in the window added %v of delay, want some", delay)
	}
	if elapsed < delay {
		t.Fatalf("send returned after %v, before its %v of injected delay", elapsed, delay)
	}
	time.Sleep(width)
	if _, delay := sendTimed(t, eps, 0, 1, &Frame{Kind: 1}); delay != 0 {
		t.Fatalf("send after the window added %v of delay, want none", delay)
	}
}

// TestSlowUnitDefault: there is no fixed slow unit. A send sleeps only when
// its wire multiplier exceeds 1; without a fault model, and at a multiplier
// of 1 or below, it adds no delay.
func TestSlowUnitDefault(t *testing.T) {
	eps := tcpMesh(t, 2)
	if _, delay := sendTimed(t, eps, 0, 1, &Frame{Kind: 1}); delay != 0 {
		t.Fatalf("send without faults added %v of delay", delay)
	}
	for _, m := range []float64{0, 0.5, 1} {
		eps[0].SetFaults(linkFaults{slow: m}, time.Now())
		if _, delay := sendTimed(t, eps, 0, 1, &Frame{Kind: 1}); delay != 0 {
			t.Errorf("send at wire multiplier %v added %v of delay, want none", m, delay)
		}
	}
}

// TestTCPSlowFactorDelays drives a degraded wire through a real send: the
// injected delay is (m-1) times the send's own measured write, so a
// multiplier-3 send spends at least half as long writing as sleeping, and
// the sleep is at most 2/3 of the whole send.
func TestTCPSlowFactorDelays(t *testing.T) {
	eps := tcpMesh(t, 2)
	const m = 3
	eps[0].SetFaults(linkFaults{slow: m}, time.Now())
	elapsed, delay := sendTimed(t, eps, 0, 1, &Frame{Kind: 1, Vec: make([]float32, 1<<16)})
	if delay <= 0 {
		t.Fatalf("multiplier-%d send added %v of delay, want some", m, delay)
	}
	if limit := elapsed * (m - 1) / m; delay > limit {
		t.Fatalf("multiplier-%d send took %v and slept %v: more than (m-1)/m of it, %v", m, elapsed, delay, limit)
	}
}

// TestPartitionWindowSeparates pins the cut geometry on a four-rank mesh
// with ranks {2, 3} on one side: exactly the sends between the sides stall
// (counted in Stats.Partitioned), and every frame is delivered.
func TestPartitionWindowSeparates(t *testing.T) {
	const n, width = 4, 20 * time.Millisecond
	eps := tcpMesh(t, n)
	side := []int{2, 3}
	for from := range eps {
		for to := range eps {
			if from == to {
				continue
			}
			before := eps[from].Stats().Partitioned
			eps[from].SetFaults(linkFaults{partUntil: width.Seconds(), side: side}, time.Now())
			sendTimed(t, eps, from, to, &Frame{Kind: 1, From: int32(from)})
			eps[from].SetFaults(nil, time.Now())
			want := slices.Contains(side, from) != slices.Contains(side, to)
			if got := eps[from].Stats().Partitioned > before; got != want {
				t.Errorf("send %d->%d stalled on the partition: %v, want %v", from, to, got, want)
			}
		}
	}
}

func TestTCPKilledConnectionRedials(t *testing.T) {
	eps := tcpMesh(t, 2)
	// Every send is dropped: it first murders the outbound conn, then must
	// redial and still deliver. No frame may be lost.
	eps[0].SetFaults(linkFaults{drop: true}, time.Now())
	const msgs = 10
	for k := 0; k < msgs; k++ {
		f := Frame{Kind: 2, Clock: int32(k)}
		if err := eps[0].Send(1, &f); err != nil {
			t.Fatalf("send %d under kill plan: %v", k, err)
		}
	}
	// Every send rides a fresh connection and the receiver's per-connection
	// readers race into the shared inbox, so arrival order across redials is
	// not guaranteed — delivery (no loss, no duplication) is the contract.
	got := map[int32]bool{}
	for k := 0; k < msgs; k++ {
		f, err := eps[1].Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("recv %d: %v", k, err)
		}
		if got[f.Clock] {
			t.Fatalf("duplicate delivery of clock %d", f.Clock)
		}
		got[f.Clock] = true
	}
	for k := int32(0); k < msgs; k++ {
		if !got[k] {
			t.Fatalf("frame with clock %d lost", k)
		}
	}
	if kills := eps[0].Stats().Kills; kills < msgs-1 {
		t.Fatalf("expected >= %d connection kills, got %d", msgs-1, kills)
	}
}

// TestTCPPartitionStallsCrossCut puts ranks {0} and {1} on opposite sides
// of a partition: the cross-cut send blocks until the cut closes (counted
// in Stats.Partitioned), then delivers — nothing is lost.
func TestTCPPartitionStallsCrossCut(t *testing.T) {
	eps := tcpMesh(t, 2)
	const width = 60 * time.Millisecond
	eps[0].SetFaults(linkFaults{partUntil: width.Seconds()}, time.Now())
	start := time.Now()
	f := Frame{Kind: 1, Clock: 7}
	if err := eps[0].Send(1, &f); err != nil {
		t.Fatalf("send across partition: %v", err)
	}
	if elapsed := time.Since(start); elapsed < width/2 {
		t.Fatalf("cross-cut send returned after %v, want a stall near %v", elapsed, width)
	}
	got, err := eps[1].Recv(5 * time.Second)
	if err != nil {
		t.Fatalf("recv after partition healed: %v", err)
	}
	if got.Clock != 7 {
		t.Fatalf("wrong frame after heal: %+v", got)
	}
	if eps[0].Stats().Partitioned == 0 {
		t.Fatal("Stats.Partitioned did not count the stalled send")
	}
}

func TestTCPCloseUnblocksRecv(t *testing.T) {
	eps := tcpMesh(t, 2)
	done := make(chan error, 1)
	go func() {
		_, err := eps[0].Recv(0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	eps[0].Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Recv did not unblock on Close")
	}
}

// TestChanNetExchange: the pipe mesh delivers, refuses a rank outside it, and
// hands a closed rank's peers over to its next endpoint.
func TestChanNetExchange(t *testing.T) {
	net := NewChanNet(3)
	want := Frame{Kind: 4, From: 2, Vec: []float32{9}}
	if err := net.Endpoint(2).Send(0, &want); err != nil {
		t.Fatalf("send: %v", err)
	}
	got, err := net.Endpoint(0).Recv(time.Second)
	if err != nil {
		t.Fatalf("recv: %v", err)
	}
	if !framesEqual(got, want) {
		t.Fatalf("frame mismatch: got %+v want %+v", got, want)
	}
	if err := net.Endpoint(0).Send(5, &want); err == nil {
		t.Fatal("send to out-of-range rank succeeded")
	}
	// A closed endpoint is a peer not listening: a send waits in the dial
	// retry for the rank's next endpoint, as for a restarted socket peer,
	// and reaches it.
	net.Endpoint(1).Close()
	sent := make(chan error, 1)
	go func() { sent <- net.Endpoint(0).Send(1, &want) }()
	time.Sleep(3 * dialBackoff)
	if got, err := net.Endpoint(1).Recv(5 * time.Second); err != nil || !framesEqual(got, want) {
		t.Fatalf("the restarted endpoint got %+v, %v", got, err)
	}
	if err := <-sent; err != nil {
		t.Fatalf("send to a restarted endpoint: %v", err)
	}
	// Without a next endpoint, the send fails once the retry runs out.
	net.Endpoint(1).Close()
	if err := net.Endpoint(2).Send(1, &want); err == nil {
		t.Fatal("send to closed endpoint succeeded")
	}
}
