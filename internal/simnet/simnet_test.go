package simnet

import (
	"math"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/des"
)

// testNet builds a 2-machine, 2-workers-per-machine network with simple
// round numbers: 1e6 B/s inter, 1e8 B/s intra, 1 ms latency.
func testNet() (*des.Engine, *Net) {
	eng := des.NewEngine()
	cfg := cluster.Config{
		Machines:          2,
		WorkersPerMachine: 2,
		InterBytesPerSec:  1e6,
		IntraBytesPerSec:  1e8,
		LatencySec:        0.001,
	}
	n := New(eng, cfg)
	for m := 0; m < 2; m++ {
		for w := 0; w < 2; w++ {
			n.AddNode(m)
		}
	}
	return eng, n
}

func TestCrossMachineDeliveryTime(t *testing.T) {
	eng, n := testNet()
	// node 0 on machine 0, node 2 on machine 1
	var arriveAt des.Time
	var wire des.Time
	eng.Spawn("recv", func(p *des.Proc) {
		m := n.Node(2).Inbox.Recv(p)
		arriveAt = p.Now()
		wire = m.WireSec
	})
	n.Send(Msg{From: 0, To: 2, Bytes: 1e6}) // cut-through: 1s wire + 1ms
	eng.Run(0)
	want := 1.001
	if math.Abs(arriveAt-want) > 1e-9 {
		t.Fatalf("arrive at %v, want %v", arriveAt, want)
	}
	if math.Abs(wire-want) > 1e-9 {
		t.Fatalf("wire %v, want %v", wire, want)
	}
}

func TestIntraMachineFastPath(t *testing.T) {
	eng, n := testNet()
	var arriveAt des.Time
	eng.Spawn("recv", func(p *des.Proc) {
		n.Node(1).Inbox.Recv(p)
		arriveAt = p.Now()
	})
	n.Send(Msg{From: 0, To: 1, Bytes: 1e6}) // 10ms bus + 1ms latency
	eng.Run(0)
	if math.Abs(arriveAt-0.011) > 1e-9 {
		t.Fatalf("arrive at %v, want 0.011", arriveAt)
	}
}

func TestIngressContentionSerializes(t *testing.T) {
	// Two senders on different source machines -> same destination machine:
	// egress links are independent, but the shared ingress link serializes,
	// so the second message arrives ~1s after the first. This is the PS
	// bottleneck mechanism.
	eng := des.NewEngine()
	cfg := cluster.Config{
		Machines:          3,
		WorkersPerMachine: 1,
		InterBytesPerSec:  1e6,
		IntraBytesPerSec:  1e9,
		LatencySec:        0,
	}
	n := New(eng, cfg)
	n.AddNode(0) // sender A
	n.AddNode(1) // sender B
	n.AddNode(2) // receiver (PS)
	var arrivals []des.Time
	eng.Spawn("ps", func(p *des.Proc) {
		for i := 0; i < 2; i++ {
			n.Node(2).Inbox.Recv(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	n.Send(Msg{From: 0, To: 2, Bytes: 1e6})
	n.Send(Msg{From: 1, To: 2, Bytes: 1e6})
	eng.Run(0)
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals", len(arrivals))
	}
	if math.Abs(arrivals[0]-1.0) > 1e-9 || math.Abs(arrivals[1]-2.0) > 1e-9 {
		t.Fatalf("arrivals = %v, want [1 2]", arrivals)
	}
}

func TestEgressQueueing(t *testing.T) {
	// Two messages from one node serialize on its machine's egress.
	eng, n := testNet()
	var arrivals []des.Time
	eng.Spawn("r", func(p *des.Proc) {
		for i := 0; i < 2; i++ {
			n.Node(2).Inbox.Recv(p)
			arrivals = append(arrivals, p.Now())
		}
	})
	n.Send(Msg{From: 0, To: 2, Bytes: 1e6})
	n.Send(Msg{From: 0, To: 2, Bytes: 1e6})
	eng.Run(0)
	// First: both links 0->1, arrive 1.001. Second queues behind it on both
	// links 1->2, arrive 2.001.
	if math.Abs(arrivals[0]-1.001) > 1e-9 || math.Abs(arrivals[1]-2.001) > 1e-9 {
		t.Fatalf("arrivals = %v", arrivals)
	}
}

func TestFasterNetworkIsFaster(t *testing.T) {
	run := func(bw float64) des.Time {
		eng := des.NewEngine()
		cfg := cluster.Config{Machines: 2, WorkersPerMachine: 1,
			InterBytesPerSec: bw, IntraBytesPerSec: 1e12, LatencySec: 1e-6}
		n := New(eng, cfg)
		n.AddNode(0)
		n.AddNode(1)
		var at des.Time
		eng.Spawn("r", func(p *des.Proc) {
			n.Node(1).Inbox.Recv(p)
			at = p.Now()
		})
		n.Send(Msg{From: 0, To: 1, Bytes: 92e6}) // ResNet-50-sized gradient
		eng.Run(0)
		return at
	}
	t10 := run(cluster.Gbps(10))
	t56 := run(cluster.Gbps(56))
	if t56 >= t10 {
		t.Fatalf("56G (%v) not faster than 10G (%v)", t56, t10)
	}
	ratio := t10 / t56
	if ratio < 5 || ratio > 6 {
		t.Fatalf("speedup ratio %v, want ~5.6", ratio)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, n := testNet()
	n.Send(Msg{From: 0, To: 1, Kind: 1, Bytes: 100}) // intra
	n.Send(Msg{From: 0, To: 2, Kind: 2, Bytes: 200}) // cross
	n.Send(Msg{From: 3, To: 0, Kind: 2, Bytes: 300}) // cross
	eng.Run(0)
	s := n.Stats()
	if s.TotalBytes != 600 || s.TotalMsgs != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.CrossMachineBytes != 500 {
		t.Fatalf("cross bytes = %d", s.CrossMachineBytes)
	}
	if s.BytesByKind[1] != 100 || s.BytesByKind[2] != 500 {
		t.Fatalf("by kind = %v", s.BytesByKind)
	}
	n.ResetStats()
	if n.Stats().TotalBytes != 0 {
		t.Fatal("reset failed")
	}
}

func TestStatsCopyIsolated(t *testing.T) {
	eng, n := testNet()
	n.Send(Msg{From: 0, To: 1, Kind: 1, Bytes: 10})
	eng.Run(0)
	s := n.Stats()
	s.BytesByKind[1] = 999
	if n.Stats().BytesByKind[1] != 10 {
		t.Fatal("Stats returned aliased map")
	}
}

func TestZeroByteMessage(t *testing.T) {
	// Control messages (acks, pull requests) should cost only latency.
	eng, n := testNet()
	var at des.Time
	eng.Spawn("r", func(p *des.Proc) {
		n.Node(2).Inbox.Recv(p)
		at = p.Now()
	})
	n.Send(Msg{From: 0, To: 2, Bytes: 0})
	eng.Run(0)
	if math.Abs(at-0.001) > 1e-9 {
		t.Fatalf("zero-byte arrival %v, want latency only", at)
	}
}

func TestPayloadCarried(t *testing.T) {
	eng, n := testNet()
	var got []float32
	eng.Spawn("r", func(p *des.Proc) {
		m := n.Node(1).Inbox.Recv(p)
		got = m.Vec
	})
	n.Send(Msg{From: 0, To: 1, Bytes: 12, Vec: []float32{1, 2, 3}})
	eng.Run(0)
	if len(got) != 3 || got[2] != 3 {
		t.Fatalf("payload = %v", got)
	}
}

func TestAddNodeValidatesMachine(t *testing.T) {
	_, n := testNet()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.AddNode(7)
}

func TestLinkBusyAccounting(t *testing.T) {
	eng, n := testNet()
	n.Send(Msg{From: 0, To: 2, Bytes: 1e6}) // 1s on egress m0 and ingress m1
	eng.Run(0)
	s := n.Stats()
	if math.Abs(s.EgressBusySec[0]-1) > 1e-9 {
		t.Fatalf("egress[0] busy = %v", s.EgressBusySec[0])
	}
	if math.Abs(s.IngressBusySec[1]-1) > 1e-9 {
		t.Fatalf("ingress[1] busy = %v", s.IngressBusySec[1])
	}
	if s.EgressBusySec[1] != 0 || s.IngressBusySec[0] != 0 {
		t.Fatal("idle directions accumulated busy time")
	}
}

func TestUtilizationSpread(t *testing.T) {
	even := Stats{IngressBusySec: []float64{1, 1}, EgressBusySec: []float64{1, 1}}
	if got := even.UtilizationSpread(); got != 0 {
		t.Fatalf("even spread = %v", got)
	}
	skew := Stats{IngressBusySec: []float64{4, 0}, EgressBusySec: []float64{4, 0}}
	if got := skew.UtilizationSpread(); got != 1 {
		t.Fatalf("skewed spread = %v", got)
	}
	var empty Stats
	if empty.UtilizationSpread() != 0 {
		t.Fatal("empty stats spread")
	}
}

// BenchmarkSendRecv is the benchmark ladder's simnet.sends_per_s pattern on a
// network that lives across iterations: per op every one of 16 nodes sends
// 100 messages of 1 MB to its right-hand neighbour, then receives the 100 its
// left-hand neighbour sent. The buffers reach their peak in the first round,
// so allocs/op reads the steady state.
func BenchmarkSendRecv(b *testing.B) {
	const nodes, msgs = 16, 100
	c := cluster.Paper10G(nodes)
	eng := des.NewEngine()
	n := New(eng, c)
	for w := 0; w < nodes; w++ {
		n.AddNode(c.MachineOfWorker(w))
	}
	for w := 0; w < nodes; w++ {
		eng.Spawn("sender", func(p *des.Proc) {
			for i := 0; i < b.N; i++ {
				for k := 0; k < msgs; k++ {
					n.Send(Msg{From: w, To: (w + 1) % nodes, Kind: 7, Bytes: 1 << 20})
				}
				for k := 0; k < msgs; k++ {
					n.Node(w).Inbox.Recv(p)
				}
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run(0)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nodes*msgs), "ns/msg")
}

// TestSendRecvSteadyStateAllocFree: a message between two processes costs no
// allocation once the inboxes and the event heap have seen their peak — the
// delivery rides in a slot of the destination inbox, not in a closure.
func TestSendRecvSteadyStateAllocFree(t *testing.T) {
	eng, n := testNet()
	eng.Spawn("echo", func(p *des.Proc) {
		for {
			m := n.Node(2).Inbox.Recv(p)
			n.Send(Msg{From: 2, To: m.From, Kind: 1, Bytes: m.Bytes})
		}
	})
	var allocs float64
	eng.Spawn("driver", func(p *des.Proc) {
		round := func() {
			for k := 0; k < 4; k++ {
				n.Send(Msg{From: 0, To: 2, Kind: 1, Bytes: 1000})
			}
			for k := 0; k < 4; k++ {
				n.Node(0).Inbox.Recv(p)
			}
		}
		round()
		allocs = testing.AllocsPerRun(100, round)
	})
	eng.Run(0)
	eng.Kill()
	if allocs != 0 {
		t.Fatalf("%v allocations per round of 8 sends and 8 receives, want 0", allocs)
	}
	if got := n.Stats().TotalMsgs; got != 8*102 {
		t.Fatalf("%d messages sent, want %d", got, 8*102)
	}
}
