package comm

import (
	"math"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
	"disttrain/internal/des"
	"disttrain/internal/rng"
	"disttrain/internal/simnet"
)

const testKind = 7

// Positional helpers over Collective keep the test bodies compact; any
// collective error is a test failure.
func ring(t *testing.T, p *des.Proc, net *simnet.Net, ids []int, self int, vec []float32, virtualLen int, bytes int64) {
	t.Helper()
	if _, _, err := Collective(p, CollectiveOpts{Op: OpRingAllReduce, Net: net, Nodes: ids, Self: self,
		Vec: vec, VirtualLen: virtualLen, Bytes: bytes, Kind: testKind}); err != nil {
		t.Errorf("ring allreduce: %v", err)
	}
}

func tree(t *testing.T, p *des.Proc, net *simnet.Net, ids []int, self int, vec []float32, virtualLen int, bytes int64) {
	t.Helper()
	if _, _, err := Collective(p, CollectiveOpts{Op: OpTreeAllReduce, Net: net, Nodes: ids, Self: self,
		Vec: vec, VirtualLen: virtualLen, Bytes: bytes, Kind: testKind}); err != nil {
		t.Errorf("tree allreduce: %v", err)
	}
}

func gather(t *testing.T, p *des.Proc, net *simnet.Net, group []int, self int, vec []float32, bytes int64) {
	t.Helper()
	if _, _, err := Collective(p, CollectiveOpts{Op: OpGather, Net: net, Nodes: group, Self: self,
		Vec: vec, Bytes: bytes, Kind: testKind}); err != nil {
		t.Errorf("gather: %v", err)
	}
}

func bcast(t *testing.T, p *des.Proc, net *simnet.Net, group []int, self int, vec []float32, bytes int64) []float32 {
	t.Helper()
	out, _, err := Collective(p, CollectiveOpts{Op: OpBroadcast, Net: net, Nodes: group, Self: self,
		Vec: vec, Bytes: bytes, Kind: testKind})
	if err != nil {
		t.Errorf("broadcast: %v", err)
	}
	return out
}

func buildNet(machines, perMachine int) (*des.Engine, *simnet.Net, []int) {
	eng := des.NewEngine()
	cfg := cluster.Config{
		Machines:          machines,
		WorkersPerMachine: perMachine,
		InterBytesPerSec:  1e9,
		IntraBytesPerSec:  1e10,
		LatencySec:        1e-5,
	}
	net := simnet.New(eng, cfg)
	var ids []int
	for m := 0; m < machines; m++ {
		for w := 0; w < perMachine; w++ {
			ids = append(ids, net.AddNode(m).ID)
		}
	}
	return eng, net, ids
}

func TestRingAllReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7} {
		eng, net, ids := buildNet(n, 1)
		vecs := make([][]float32, n)
		want := make([]float32, 10)
		r := rng.New(uint64(n))
		for i := range vecs {
			vecs[i] = make([]float32, 10)
			for j := range vecs[i] {
				vecs[i][j] = float32(r.NormFloat64())
				want[j] += vecs[i][j]
			}
		}
		for i := 0; i < n; i++ {
			i := i
			eng.Spawn("w", func(p *des.Proc) {
				ring(t, p, net, ids, i, vecs[i], 0, 40)
			})
		}
		eng.Run(0)
		if stuck := eng.Stuck(); len(stuck) > 0 {
			t.Fatalf("n=%d stuck: %v", n, stuck)
		}
		for i := range vecs {
			for j := range want {
				if math.Abs(float64(vecs[i][j]-want[j])) > 1e-4 {
					t.Fatalf("n=%d worker %d coord %d: %v want %v", n, i, j, vecs[i][j], want[j])
				}
			}
		}
	}
}

func TestRingAllReduceCostOnly(t *testing.T) {
	n := 4
	eng, net, ids := buildNet(n, 1)
	for i := 0; i < n; i++ {
		i := i
		eng.Spawn("w", func(p *des.Proc) {
			ring(t, p, net, ids, i, nil, 1000, 4000)
		})
	}
	eng.Run(0)
	if stuck := eng.Stuck(); len(stuck) > 0 {
		t.Fatalf("stuck: %v", stuck)
	}
	// 2(n-1) steps, each participant sends one chunk of ~1000 bytes.
	s := net.Stats()
	wantMsgs := int64(2 * (n - 1) * n)
	if s.TotalMsgs != wantMsgs {
		t.Fatalf("msgs = %d, want %d", s.TotalMsgs, wantMsgs)
	}
	wantBytes := int64(2 * (n - 1) * 4000) // each round moves the full vector once
	if s.TotalBytes != wantBytes {
		t.Fatalf("bytes = %d, want %d", s.TotalBytes, wantBytes)
	}
}

func TestRingAllReduceUnevenLength(t *testing.T) {
	// Vector length not divisible by participant count.
	n := 3
	eng, net, ids := buildNet(n, 1)
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = []float32{1, 1, 1, 1, 1, 1, 1} // len 7
	}
	for i := 0; i < n; i++ {
		i := i
		eng.Spawn("w", func(p *des.Proc) {
			ring(t, p, net, ids, i, vecs[i], 0, 28)
		})
	}
	eng.Run(0)
	for i := range vecs {
		for j, v := range vecs[i] {
			if v != 3 {
				t.Fatalf("worker %d coord %d = %v, want 3", i, j, v)
			}
		}
	}
}

func TestRingAllReduceTimeScalesWithBandwidth(t *testing.T) {
	run := func(bw float64) des.Time {
		eng := des.NewEngine()
		cfg := cluster.Config{Machines: 4, WorkersPerMachine: 1,
			InterBytesPerSec: bw, IntraBytesPerSec: 1e12, LatencySec: 1e-6}
		net := simnet.New(eng, cfg)
		var ids []int
		for m := 0; m < 4; m++ {
			ids = append(ids, net.AddNode(m).ID)
		}
		var end des.Time
		for i := 0; i < 4; i++ {
			i := i
			eng.Spawn("w", func(p *des.Proc) {
				ring(t, p, net, ids, i, nil, 1<<20, 4<<20)
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
		eng.Run(0)
		return end
	}
	fast := run(cluster.Gbps(56))
	slow := run(cluster.Gbps(10))
	if fast >= slow {
		t.Fatalf("56G allreduce (%v) not faster than 10G (%v)", fast, slow)
	}
}

func TestLocalGatherSumsOnLeader(t *testing.T) {
	eng, net, ids := buildNet(1, 4)
	vecs := make([][]float32, 4)
	for i := range vecs {
		vecs[i] = []float32{float32(i + 1), 1}
	}
	for i := 0; i < 4; i++ {
		i := i
		eng.Spawn("w", func(p *des.Proc) {
			gather(t, p, net, ids, i, vecs[i], 8)
		})
	}
	eng.Run(0)
	// leader (index 0) should hold 1+2+3+4 = 10 and 4.
	if vecs[0][0] != 10 || vecs[0][1] != 4 {
		t.Fatalf("leader vec = %v", vecs[0])
	}
	// members' vectors unchanged
	if vecs[1][0] != 2 {
		t.Fatalf("member vec modified: %v", vecs[1])
	}
}

func TestLocalBroadcastDelivers(t *testing.T) {
	eng, net, ids := buildNet(1, 3)
	payload := []float32{5, 6}
	got := make([][]float32, 3)
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("w", func(p *des.Proc) {
			v := bcast(t, p, net, ids, i, payloadIf(i == 0, payload), 8)
			got[i] = v
		})
	}
	eng.Run(0)
	for i := 0; i < 3; i++ {
		if got[i] == nil || got[i][0] != 5 || got[i][1] != 6 {
			t.Fatalf("member %d got %v", i, got[i])
		}
	}
}

func payloadIf(cond bool, v []float32) []float32 {
	if cond {
		return v
	}
	return nil
}

func TestSingleMemberGroupsAreNoOps(t *testing.T) {
	eng, net, ids := buildNet(1, 1)
	ran := false
	eng.Spawn("w", func(p *des.Proc) {
		v := []float32{1}
		gather(t, p, net, ids[:1], 0, v, 4)
		out := bcast(t, p, net, ids[:1], 0, v, 4)
		if out[0] != 1 {
			t.Error("no-op broadcast changed vector")
		}
		ran = true
	})
	eng.Run(0)
	if !ran {
		t.Fatal("proc did not run")
	}
	if net.Stats().TotalMsgs != 0 {
		t.Fatal("single-member group sent messages")
	}
}

func TestLocalAggregationReducesCrossTraffic(t *testing.T) {
	// The point of local aggregation: gather on machine leaders first, then
	// only leaders talk cross-machine. Verify intra traffic is not counted
	// as cross-machine bytes.
	eng, net, ids := buildNet(2, 2)
	for i := 0; i < 4; i++ {
		i := i
		eng.Spawn("w", func(p *des.Proc) {
			group := ids[0:2]
			self := i
			if i >= 2 {
				group = ids[2:4]
				self = i - 2
			}
			gather(t, p, net, group, self, nil, 1000)
		})
	}
	eng.Run(0)
	s := net.Stats()
	if s.CrossMachineBytes != 0 {
		t.Fatalf("local gather crossed machines: %d bytes", s.CrossMachineBytes)
	}
	if s.TotalBytes != 2000 {
		t.Fatalf("total = %d, want 2000", s.TotalBytes)
	}
}

func TestTreeAllReduceSum(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 5, 8} {
		eng, net, ids := buildNet(n, 1)
		vecs := make([][]float32, n)
		want := make([]float32, 6)
		r := rng.New(uint64(n + 100))
		for i := range vecs {
			vecs[i] = make([]float32, 6)
			for j := range vecs[i] {
				vecs[i][j] = float32(r.NormFloat64())
				want[j] += vecs[i][j]
			}
		}
		for i := 0; i < n; i++ {
			i := i
			eng.Spawn("w", func(p *des.Proc) {
				tree(t, p, net, ids, i, vecs[i], 0, 24)
			})
		}
		eng.Run(0)
		if stuck := eng.Stuck(); len(stuck) > 0 {
			t.Fatalf("n=%d stuck: %v", n, stuck)
		}
		for i := range vecs {
			for j := range want {
				if math.Abs(float64(vecs[i][j]-want[j])) > 1e-4 {
					t.Fatalf("n=%d worker %d coord %d: %v want %v", n, i, j, vecs[i][j], want[j])
				}
			}
		}
	}
}

// TestTreeAllReduceFoldsInRoundOrder pins the tree's float sum order against
// a straggler. Rank 0 folds rank 1 in round d=1 and rank 2 (already carrying
// rank 3) in round d=2; with rank 1 late, rank 2's message arrives first and
// must wait its turn. (v0+v1)+(v2+v3) is 0 in float32; folding in arrival
// order, (v0+(v2+v3))+v1, would be 1.
func TestTreeAllReduceFoldsInRoundOrder(t *testing.T) {
	eng, net, ids := buildNet(4, 1)
	vecs := [][]float32{{1e8}, {1}, {-1e8}, {1}}
	for i := range vecs {
		i := i
		eng.Spawn("w", func(p *des.Proc) {
			if i == 1 {
				p.Sleep(1)
			}
			tree(t, p, net, ids, i, vecs[i], 0, 4)
		})
	}
	eng.Run(0)
	if stuck := eng.Stuck(); len(stuck) > 0 {
		t.Fatalf("stuck: %v", stuck)
	}
	for i := range vecs {
		if vecs[i][0] != 0 {
			t.Fatalf("rank %d holds %v, want (v0+v1)+(v2+v3) = 0", i, vecs[i][0])
		}
	}
}

func TestTreeAllReduceRepeatedRounds(t *testing.T) {
	// Two back-to-back tree allreduces must not cross-contaminate.
	n := 4
	eng, net, ids := buildNet(n, 1)
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = []float32{1}
	}
	for i := 0; i < n; i++ {
		i := i
		eng.Spawn("w", func(p *des.Proc) {
			tree(t, p, net, ids, i, vecs[i], 0, 4)
			// all now 4; second round sums to 16
			tree(t, p, net, ids, i, vecs[i], 0, 4)
		})
	}
	eng.Run(0)
	for i := range vecs {
		if vecs[i][0] != 16 {
			t.Fatalf("worker %d = %v, want 16", i, vecs[i][0])
		}
	}
}

func TestTreeVsRingLatencyCrossover(t *testing.T) {
	// Small message: tree's O(log N) rounds beat the ring's 2(N-1) rounds.
	// Large message: the ring's O(M) per-link traffic beats the tree's
	// O(M log N) root bottleneck.
	run := func(useTree bool, bytes int64) des.Time {
		n := 8
		eng := des.NewEngine()
		cfg := cluster.Config{Machines: n, WorkersPerMachine: 1,
			InterBytesPerSec: cluster.Gbps(10), IntraBytesPerSec: 1e12, LatencySec: 100e-6}
		net := simnet.New(eng, cfg)
		var ids []int
		for m := 0; m < n; m++ {
			ids = append(ids, net.AddNode(m).ID)
		}
		var end des.Time
		for i := 0; i < n; i++ {
			i := i
			eng.Spawn("w", func(p *des.Proc) {
				if useTree {
					tree(t, p, net, ids, i, nil, int(bytes/4), bytes)
				} else {
					ring(t, p, net, ids, i, nil, int(bytes/4), bytes)
				}
				if p.Now() > end {
					end = p.Now()
				}
			})
		}
		eng.Run(0)
		return end
	}
	small := int64(4 << 10)
	if tt, rt := run(true, small), run(false, small); tt >= rt {
		t.Fatalf("small message: tree (%v) not faster than ring (%v)", tt, rt)
	}
	large := int64(128 << 20)
	if tt, rt := run(true, large), run(false, large); tt <= rt {
		t.Fatalf("large message: ring (%v) not faster than tree (%v)", rt, tt)
	}
}

// BenchmarkRingCostOnly128 is the benchmark ladder's comm.ring_host_ms.n128
// rung: one cost-only ring AllReduce of a VGG-16-sized gradient (528 MiB)
// over 128 ranks on the 10 Gbps cluster, network and processes built fresh
// per op — 2·127 rounds of 128 messages, nothing but des, simnet and the
// ring's chunk arithmetic.
func BenchmarkRingCostOnly128(b *testing.B) {
	const n = 128
	c, vggBytes := cluster.Paper10G(n), costmodel.VGG16().TotalBytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eng := des.NewEngine()
		net := simnet.New(eng, c)
		ids := make([]int, n)
		for w := range ids {
			ids[w] = net.AddNode(c.MachineOfWorker(w)).ID
		}
		for w := 0; w < n; w++ {
			eng.Spawn("rank", func(p *des.Proc) {
				if _, _, err := Collective(p, CollectiveOpts{Op: OpRingAllReduce, Net: net, Nodes: ids, Self: w,
					VirtualLen: 1000, Bytes: vggBytes, Kind: testKind}); err != nil {
					b.Error(err)
				}
			})
		}
		eng.Run(0)
		if stuck := eng.Stuck(); len(stuck) > 0 {
			b.Fatalf("%d stuck ranks", len(stuck))
		}
	}
}
