package xport

import (
	"fmt"
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

func TestTCPKilledConnectionRedials(t *testing.T) {
	eps := tcpMesh(t, 2)
	// Always-on kill window: every send first murders the outbound conn,
	// then must redial and still deliver. No frame may be lost.
	eps[0].SetFaults(&FaultPlan{
		Seed:  7,
		Kills: []KillWindow{{From: 0, To: time.Hour, Prob: 1}},
	}, time.Now())
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

func TestTCPDelayWindow(t *testing.T) {
	eps := tcpMesh(t, 2)
	const d = 20 * time.Millisecond
	eps[0].SetFaults(&FaultPlan{
		Delays: []DelayWindow{{From: 0, To: time.Hour, Delay: d}},
	}, time.Now())
	start := time.Now()
	f := Frame{Kind: 1}
	if err := eps[0].Send(1, &f); err != nil {
		t.Fatalf("send: %v", err)
	}
	if elapsed := time.Since(start); elapsed < d {
		t.Fatalf("send returned after %v, want >= %v of injected latency", elapsed, d)
	}
	if _, err := eps[1].Recv(5 * time.Second); err != nil {
		t.Fatalf("recv: %v", err)
	}
}

// TestSlowUnitDefault pins the slow-unit contract: a factor-F window with
// no explicit delay injects (F-1) slow units per send, one unit being
// DefaultSlowUnit (10ms) unless the plan overrides it, and a fixed Delay
// stacks on top of the factor term.
func TestSlowUnitDefault(t *testing.T) {
	if DefaultSlowUnit != 10*time.Millisecond {
		t.Fatalf("DefaultSlowUnit = %v, want 10ms", DefaultSlowUnit)
	}
	cases := []struct {
		name string
		plan FaultPlan
		win  DelayWindow
		want time.Duration
	}{
		{"factor 3 default unit", FaultPlan{}, DelayWindow{Factor: 3}, 20 * time.Millisecond},
		{"factor 3 custom unit", FaultPlan{SlowUnit: time.Millisecond}, DelayWindow{Factor: 3}, 2 * time.Millisecond},
		{"factor 1 is free", FaultPlan{}, DelayWindow{Factor: 1}, 0},
		{"delay stacks on factor", FaultPlan{SlowUnit: 5 * time.Millisecond},
			DelayWindow{Delay: 7 * time.Millisecond, Factor: 2}, 12 * time.Millisecond},
		{"plain delay unaffected by unit", FaultPlan{SlowUnit: time.Hour},
			DelayWindow{Delay: 3 * time.Millisecond}, 3 * time.Millisecond},
	}
	for _, tc := range cases {
		if got := tc.win.delayFor(tc.plan.slowUnit()); got != tc.want {
			t.Errorf("%s: delayFor = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestTCPSlowFactorDelays drives a factor-only window through a real send:
// the injected latency is (Factor-1) slow units with the plan's unit.
func TestTCPSlowFactorDelays(t *testing.T) {
	eps := tcpMesh(t, 2)
	const unit = 10 * time.Millisecond
	eps[0].SetFaults(&FaultPlan{
		SlowUnit: unit,
		Delays:   []DelayWindow{{From: 0, To: time.Hour, Factor: 3}},
	}, time.Now())
	start := time.Now()
	f := Frame{Kind: 1}
	if err := eps[0].Send(1, &f); err != nil {
		t.Fatalf("send: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 2*unit {
		t.Fatalf("factor-3 send returned after %v, want >= %v", elapsed, 2*unit)
	}
	if _, err := eps[1].Recv(5 * time.Second); err != nil {
		t.Fatalf("recv: %v", err)
	}
	if eps[0].Stats().DelayNanos < int64(2*unit) {
		t.Fatalf("DelayNanos = %d, want >= %d", eps[0].Stats().DelayNanos, int64(2*unit))
	}
}

// TestPartitionWindowSeparates pins the cut geometry: only pairs straddling
// Side are severed.
func TestPartitionWindowSeparates(t *testing.T) {
	w := PartitionWindow{Side: []int{2, 3}}
	cases := []struct {
		a, b int
		want bool
	}{
		{0, 2, true}, {3, 1, true}, {2, 3, false}, {0, 1, false}, {2, 2, false},
	}
	for _, tc := range cases {
		if got := w.separates(tc.a, tc.b); got != tc.want {
			t.Errorf("separates(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
}

// TestTCPPartitionStallsCrossCut puts ranks {0} and {1} on opposite sides
// of a live partition window: the cross-cut send blocks until the window
// closes (counted in Stats.Partitioned), then delivers — nothing is lost.
func TestTCPPartitionStallsCrossCut(t *testing.T) {
	eps := tcpMesh(t, 2)
	const width = 60 * time.Millisecond
	eps[0].SetFaults(&FaultPlan{
		Partitions: []PartitionWindow{{From: 0, To: width, Side: []int{1}}},
	}, time.Now())
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
