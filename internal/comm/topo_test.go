package comm

import (
	"math"
	"strings"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/costmodel"
	"disttrain/internal/des"
	"disttrain/internal/rng"
	"disttrain/internal/simnet"
	"disttrain/internal/tensor"
	"disttrain/internal/topo"
)

// topoWorlds are the worker counts the reference-fold property must hold at;
// the primes (3, 257) force non-power-of-two butterfly folding and are
// rejected by the torus.
var topoWorlds = []int{3, 8, 24, 100, 257, 1024}

// groupsFor partitions ranks 0..n-1 into machines of 4, matching
// buildNet(ceil(n/4), 4) placement.
func groupsFor(n int) [][]int {
	var gs [][]int
	for r := 0; r < n; r++ {
		if r%4 == 0 {
			gs = append(gs, nil)
		}
		gs[len(gs)-1] = append(gs[len(gs)-1], r)
	}
	return gs
}

// runWorld spawns one proc per rank running op over fresh copies of vecs
// and returns the per-rank results.
func runWorld(t *testing.T, op Op, n int, vecs [][]float32, bytes int64) ([][]float32, simnet.Stats) {
	t.Helper()
	machines := (n + 3) / 4
	eng, net, ids := buildNet(machines, 4)
	ids = ids[:n]
	out := make([][]float32, n)
	for i := 0; i < n; i++ {
		i := i
		out[i] = append([]float32(nil), vecs[i]...)
		eng.Spawn("w", func(p *des.Proc) {
			o := CollectiveOpts{Op: op, Net: net, Nodes: ids, Self: i,
				Vec: out[i], Bytes: bytes, Kind: testKind}
			switch op {
			case OpHierarchicalAllReduce:
				o.Groups = groupsFor(n)
			case OpTorusAllReduce:
				rows, cols, err := topo.TorusShape(n)
				if err != nil {
					t.Errorf("torus shape: %v", err)
					return
				}
				o.TorusRows, o.TorusCols = rows, cols
			}
			if _, _, err := Collective(p, o); err != nil {
				t.Errorf("%v n=%d rank %d: %v", op, n, i, err)
			}
		})
	}
	eng.Run(0)
	if stuck := eng.Stuck(); len(stuck) > 0 {
		t.Fatalf("%v n=%d stuck procs: %d", op, n, len(stuck))
	}
	return out, net.Stats()
}

func randVecs(n, vlen int, seed uint64) [][]float32 {
	r := rng.New(seed)
	vecs := make([][]float32, n)
	for i := range vecs {
		vecs[i] = make([]float32, vlen)
		for j := range vecs[i] {
			vecs[i][j] = float32(r.NormFloat64())
		}
	}
	return vecs
}

func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// ringReference folds the full contribution set in the flat ring's exact
// order: chunk c of the result is the left fold of ranks c, c+1, …,
// c+n−1 (cyclic), with the ring's chunk boundaries. Identical bits to what
// OpRingAllReduce leaves in every participant's vector.
func ringReference(vecs [][]float32, out []float32) {
	n := len(vecs)
	vlen := len(out)
	for c := 0; c < n; c++ {
		lo, hi := vlen*c/n, vlen*(c+1)/n
		if lo == hi {
			continue
		}
		copy(out[lo:hi], vecs[c][lo:hi])
		for k := 1; k < n; k++ {
			tensor.AxpyF32(1, vecs[(c+k)%n][lo:hi], out[lo:hi])
		}
	}
}

// hierarchicalReference is OpHierarchicalAllReduce's fold order: each group
// a left fold in member order into its leader, then the ring's order over
// the leader sums.
func hierarchicalReference(vecs [][]float32, groups [][]int, out []float32) {
	sums := make([][]float32, len(groups))
	for g, members := range groups {
		sums[g] = append([]float32(nil), vecs[members[0]]...)
		for _, r := range members[1:] {
			tensor.AxpyF32(1, vecs[r], sums[g])
		}
	}
	ringReference(sums, out)
}

// torusReference is OpTorusAllReduce's fold order: the ring's order along
// each row, then the ring's order over the row sums (every column holds the
// same ones).
func torusReference(vecs [][]float32, rows, cols int, out []float32) {
	sums := make([][]float32, rows)
	for r := range sums {
		sums[r] = make([]float32, len(out))
		ringReference(vecs[r*cols:(r+1)*cols], sums[r])
	}
	ringReference(sums, out)
}

// butterflyReference is OpButterflyAllReduce's fold order, the hypercube
// pair tree: each leftover odd rank folds into its even neighbour, then the
// upper half of the active list folds onto the lower half until one vector
// is left. (Which partner of a pair holds the sum does not show: a+b and
// b+a are the same bits.)
func butterflyReference(vecs [][]float32, out []float32) {
	n := len(vecs)
	p2 := 1
	for p2*2 <= n {
		p2 *= 2
	}
	r := n - p2
	act := make([][]float32, p2)
	for a := range act {
		if a < r {
			act[a] = append([]float32(nil), vecs[2*a]...)
			tensor.AxpyF32(1, vecs[2*a+1], act[a])
		} else {
			act[a] = append([]float32(nil), vecs[a+r]...)
		}
	}
	for m := p2 / 2; m >= 1; m /= 2 {
		for a := 0; a < m; a++ {
			tensor.AxpyF32(1, act[a+m], act[a])
		}
	}
	copy(out, act[0])
}

// TestTopoCollectivesMatchReferenceFolds pins each collective's summation
// tree: at every world size, every rank's vector must hold exactly the bits
// of the op's reference fold above — so all members agree with each other —
// and sit within rounding of the ring's. The flat ring itself is checked
// against ringReference (at the sizes where simulating its O(n²) messages
// stays cheap), closing the loop.
func TestTopoCollectivesMatchReferenceFolds(t *testing.T) {
	const vlen = 130 // not divisible by most world sizes: uneven chunks, empty chunks at n > vlen
	for _, n := range topoWorlds {
		vecs := randVecs(n, vlen, uint64(n))
		ring := make([]float32, vlen)
		ringReference(vecs, ring)

		want := map[Op][]float32{}
		ref := func(op Op) []float32 {
			want[op] = make([]float32, vlen)
			return want[op]
		}
		hierarchicalReference(vecs, groupsFor(n), ref(OpHierarchicalAllReduce))
		butterflyReference(vecs, ref(OpButterflyAllReduce))
		if n <= 257 {
			copy(ref(OpRingAllReduce), ring)
		}
		if rows, cols, err := topo.TorusShape(n); err == nil {
			torusReference(vecs, rows, cols, ref(OpTorusAllReduce))
		}
		for op, w := range want {
			got, _ := runWorld(t, op, n, vecs, int64(vlen*4))
			for i := range got {
				if !bitEqual(got[i], w) {
					t.Fatalf("%v n=%d rank %d differs from its reference fold", op, n, i)
				}
			}
			for j := range w {
				if d := math.Abs(float64(w[j] - ring[j])); d > 1e-3 {
					t.Fatalf("%v n=%d elem %d: %v is %g from the ring's %v", op, n, j, w[j], d, ring[j])
				}
			}
		}
	}
}

// TestTopoCollectivesGatherSumExact uses integer-valued floats, where
// addition is exact at any association: every collective, including the
// tree, must match the plain gather-sum.
func TestTopoCollectivesGatherSumExact(t *testing.T) {
	const vlen, n = 24, 8
	vecs := make([][]float32, n)
	want := make([]float32, vlen)
	for i := range vecs {
		vecs[i] = make([]float32, vlen)
		for j := range vecs[i] {
			vecs[i][j] = float32(i*vlen + j)
			want[j] += vecs[i][j]
		}
	}
	for _, op := range []Op{OpRingAllReduce, OpTreeAllReduce,
		OpHierarchicalAllReduce, OpButterflyAllReduce, OpTorusAllReduce} {
		got, _ := runWorld(t, op, n, vecs, int64(vlen*4))
		for i := range got {
			if !bitEqual(got[i], want) {
				t.Fatalf("%v rank %d: %v, want %v", op, i, got[i], want)
			}
		}
	}
}

// TestTopoCollectivesCostSchedules pins each collective's wire schedule in
// cost-only mode: message and byte counts must match the algorithm's
// analytic pattern.
func TestTopoCollectivesCostSchedules(t *testing.T) {
	const n, B = 8, 4000
	cases := []struct {
		op        Op
		wantMsgs  int64
		wantBytes int64
	}{
		// 6 member→leader (B) + leaders 2-ring (2 steps × 2 leaders × B/2)
		// + 6 leader→member (B).
		{OpHierarchicalAllReduce, 16, 6*B + 4*B/2 + 6*B},
		// 3 halving rounds (B/2+B/4+B/8 per rank) mirrored by 3 doubling.
		{OpButterflyAllReduce, 48, 2 * 8 * (B/2 + B/4 + B/8)},
		// 2×4 grid: row rings 6 msgs/rank × B/4, col rings 2 msgs/rank × B/2.
		{OpTorusAllReduce, 64, 8*6*B/4 + 8*2*B/2},
	}
	for _, tc := range cases {
		_, stats := runCostOnly(t, tc.op, n, B)
		if stats.TotalMsgs != tc.wantMsgs || stats.TotalBytes != tc.wantBytes {
			t.Fatalf("%v: %d msgs / %d bytes, want %d / %d",
				tc.op, stats.TotalMsgs, stats.TotalBytes, tc.wantMsgs, tc.wantBytes)
		}
	}
}

func runCostOnly(t *testing.T, op Op, n int, bytes int64) (des.Time, simnet.Stats) {
	t.Helper()
	machines := (n + 3) / 4
	eng, net, ids := buildNet(machines, 4)
	return runCostOnlyNet(t, op, n, bytes, eng, net, ids)
}

func runCostOnlyNet(t *testing.T, op Op, n int, bytes int64, eng *des.Engine, net *simnet.Net, ids []int) (des.Time, simnet.Stats) {
	t.Helper()
	ids = ids[:n]
	for i := 0; i < n; i++ {
		i := i
		eng.Spawn("w", func(p *des.Proc) {
			o := CollectiveOpts{Op: op, Net: net, Nodes: ids, Self: i,
				VirtualLen: 1000, Bytes: bytes, Kind: testKind}
			switch op {
			case OpHierarchicalAllReduce:
				o.Groups = groupsFor(n)
			case OpTorusAllReduce:
				rows, cols, err := topo.TorusShape(n)
				if err != nil {
					t.Errorf("torus shape: %v", err)
					return
				}
				o.TorusRows, o.TorusCols = rows, cols
			}
			if _, _, err := Collective(p, o); err != nil {
				t.Errorf("%v rank %d: %v", op, i, err)
			}
		})
	}
	eng.Run(0)
	if stuck := eng.Stuck(); len(stuck) > 0 {
		t.Fatalf("%v stuck procs: %d", op, len(stuck))
	}
	return eng.Now(), net.Stats()
}

// TestHierarchicalBeatsRingCrossMachine: the point of the hierarchy on the
// paper's 10G fabric. The flat ring pipelines chunks so well that its NIC
// occupancy hides per-hop latency while intra-machine hops are cheap —
// bandwidth-wise it is near optimal. What it cannot hide at scale is the
// 2(n−1)-step dependency chain: once chunks are small, every step pays the
// full hop latency. The leaders' ring cuts the chain to 2(M−1) steps, so
// in the latency-bound regime (small/compressed gradients, the DGC class)
// hierarchical wins outright — here a ~470 KB gradient on the paper's
// 24-worker testbed.
func TestHierarchicalBeatsRingCrossMachine(t *testing.T) {
	const n = 24
	const B = 470 << 10
	mkNet := func() (*des.Engine, *simnet.Net, []int) {
		eng := des.NewEngine()
		net := simnet.New(eng, cluster.Paper10G(n))
		var ids []int
		for w := 0; w < n; w++ {
			ids = append(ids, net.AddNode(w/4).ID)
		}
		return eng, net, ids
	}
	eng, net, ids := mkNet()
	ringT, ringStats := runCostOnlyNet(t, OpRingAllReduce, n, B, eng, net, ids)
	eng, net, ids = mkNet()
	hierT, hierStats := runCostOnlyNet(t, OpHierarchicalAllReduce, n, B, eng, net, ids)
	if hierT >= ringT {
		t.Fatalf("hierarchical %v >= ring %v at %d workers", hierT, ringT, n)
	}
	if hierStats.CrossMachineBytes >= ringStats.CrossMachineBytes {
		t.Fatalf("hierarchical moved %d cross-machine bytes, ring %d",
			hierStats.CrossMachineBytes, ringStats.CrossMachineBytes)
	}
}

// TestPredictionsMatchSimulator gates the costmodel's first-order ring and
// hierarchical formulas against the DES measurement: within 25 % relative
// error across both the bandwidth-bound (full ResNet-50 gradient) and
// latency-bound (DGC-compressed class) regimes on the paper's 10G fabric.
// The rougher butterfly/torus envelopes are deliberately not gated.
func TestPredictionsMatchSimulator(t *testing.T) {
	const tol = 0.25
	cases := []struct {
		n     int
		bytes int64
	}{
		{8, 470 << 10},
		{24, 470 << 10},
		{24, 94 << 20},
		{64, 94 << 20},
	}
	for _, tc := range cases {
		cfg := cluster.Paper10G(tc.n)
		mkNet := func() (*des.Engine, *simnet.Net, []int) {
			eng := des.NewEngine()
			net := simnet.New(eng, cfg)
			var ids []int
			for w := 0; w < tc.n; w++ {
				ids = append(ids, net.AddNode(w/4).ID)
			}
			return eng, net, ids
		}
		for _, c := range []struct {
			op   Op
			name string
		}{
			{OpRingAllReduce, "ring"},
			{OpHierarchicalAllReduce, "hierarchical"},
		} {
			eng, net, ids := mkNet()
			measured, _ := runCostOnlyNet(t, c.op, tc.n, tc.bytes, eng, net, ids)
			pred, err := costmodel.PredictAllReduceSec(c.name, cfg, tc.n, tc.bytes)
			if err != nil {
				t.Fatal(err)
			}
			if rel := math.Abs(float64(measured)-pred) / float64(measured); rel > tol {
				t.Errorf("%s n=%d B=%d: measured %.4gs predicted %.4gs (%.0f%% off)",
					c.name, tc.n, tc.bytes, float64(measured), pred, 100*rel)
			}
		}
	}
}

// TestTopoCollectiveRejects extends the validation table to the new ops'
// pointed errors.
func TestTopoCollectiveRejects(t *testing.T) {
	eng, net, ids := buildNet(3, 1)
	vec3 := []float32{1, 2, 3}
	cases := []struct {
		name string
		opts CollectiveOpts
		want string
	}{
		{"hierarchical without groups",
			CollectiveOpts{Op: OpHierarchicalAllReduce, Net: net, Nodes: ids, Vec: vec3},
			"needs a cluster layout"},
		{"hierarchical empty group",
			CollectiveOpts{Op: OpHierarchicalAllReduce, Net: net, Nodes: ids, Vec: vec3,
				Groups: [][]int{{0, 1, 2}, {}}},
			"group 1 is empty"},
		{"hierarchical rank in two groups",
			CollectiveOpts{Op: OpHierarchicalAllReduce, Net: net, Nodes: ids, Vec: vec3,
				Groups: [][]int{{0, 1}, {1, 2}}},
			"appears in two groups"},
		{"hierarchical member out of range",
			CollectiveOpts{Op: OpHierarchicalAllReduce, Net: net, Nodes: ids, Vec: vec3,
				Groups: [][]int{{0, 1}, {2, 3}}},
			"outside world"},
		{"hierarchical incomplete cover",
			CollectiveOpts{Op: OpHierarchicalAllReduce, Net: net, Nodes: ids, Vec: vec3,
				Groups: [][]int{{0, 1}}},
			"cover 2 of 3 ranks"},
		{"torus without shape",
			CollectiveOpts{Op: OpTorusAllReduce, Net: net, Nodes: ids, Vec: vec3},
			"rectangular grid"},
		{"torus non-rectangular world",
			CollectiveOpts{Op: OpTorusAllReduce, Net: net, Nodes: ids, Vec: vec3,
				TorusRows: 2, TorusCols: 2},
			"does not cover 3 ranks"},
		{"butterfly cost-only without length",
			CollectiveOpts{Op: OpButterflyAllReduce, Net: net, Nodes: ids, Bytes: 12},
			"positive VirtualLen"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var err error
			eng.Spawn("w", func(p *des.Proc) {
				_, _, err = Collective(p, tc.opts)
			})
			eng.Run(0)
			if err == nil {
				t.Fatalf("opts accepted, want error containing %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if n := net.Stats().TotalMsgs; n != 0 {
		t.Fatalf("rejected collectives sent %d messages", n)
	}
}

// TestTopoOpStrings pins the op names used in error messages and reports.
func TestTopoOpStrings(t *testing.T) {
	want := map[Op]string{
		OpHierarchicalAllReduce: "hierarchical allreduce",
		OpButterflyAllReduce:    "butterfly allreduce",
		OpTorusAllReduce:        "torus allreduce",
	}
	for op, s := range want {
		if op.String() != s {
			t.Fatalf("%d.String() = %q, want %q", int(op), op.String(), s)
		}
	}
}
