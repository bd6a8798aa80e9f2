package ps

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
)

func segsOf(lens ...int) []nn.Segment {
	var segs []nn.Segment
	off := 0
	for i, l := range lens {
		segs = append(segs, nn.Segment{Name: string(rune('a' + i)), Off: off, Len: l})
		off += l
	}
	return segs
}

func TestLayerWisePartition(t *testing.T) {
	segs := segsOf(10, 20, 30, 40)
	a := LayerWise(segs, 2)
	if err := a.Validate(100); err != nil {
		t.Fatal(err)
	}
	// shard 0: layers 0,2 -> 40 params; shard 1: layers 1,3 -> 60 params.
	if a.Params(0) != 40 || a.Params(1) != 60 {
		t.Fatalf("params = %d/%d", a.Params(0), a.Params(1))
	}
}

func TestLayerWiseSkew(t *testing.T) {
	// A VGG-like skewed layer lands whole on one shard under layer-wise
	// sharding — this is the bottleneck the paper identifies.
	segs := segsOf(5, 5, 80, 5, 5)
	a := LayerWise(segs, 4)
	if a.MaxBytes() != 80*4 {
		t.Fatalf("max shard bytes = %d, want 320", a.MaxBytes())
	}
}

func TestBalancedPartition(t *testing.T) {
	a := Balanced(100, 4)
	if err := a.Validate(100); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if a.Params(s) != 25 {
			t.Fatalf("shard %d has %d params", s, a.Params(s))
		}
	}
}

func TestBalancedBeatsLayerWiseOnSkew(t *testing.T) {
	segs := segsOf(5, 5, 80, 5, 5)
	lw := LayerWise(segs, 4)
	bal := Balanced(100, 4)
	if bal.MaxBytes() >= lw.MaxBytes() {
		t.Fatalf("balanced max %d not < layer-wise max %d", bal.MaxBytes(), lw.MaxBytes())
	}
}

func TestSinglePartition(t *testing.T) {
	a := Single(42)
	if err := a.Validate(42); err != nil {
		t.Fatal(err)
	}
	if len(a) != 1 || a.Bytes(0) != 42*4 {
		t.Fatalf("single = %+v", a)
	}
}

func TestPartitionProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		nLayers := 1 + r.Intn(20)
		lens := make([]int, nLayers)
		total := 0
		for i := range lens {
			lens[i] = 1 + r.Intn(50)
			total += lens[i]
		}
		shards := 1 + r.Intn(6)
		if LayerWise(segsOf(lens...), shards).Validate(total) != nil {
			return false
		}
		return Balanced(total, shards).Validate(total) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionersAtScale(t *testing.T) {
	// ResNet-50-sized vector over 256 and 1024 shards: both partitioners
	// must still produce exact covers, and Balanced must keep every shard
	// within one parameter of the ideal slice.
	const total = 23_500_000
	var segs []nn.Segment
	{
		// ~160 layers of uneven sizes summing to total.
		var lens []int
		r := rng.New(7)
		rem := total
		for rem > 0 {
			l := 1 + r.Intn(300_000)
			if l > rem {
				l = rem
			}
			lens = append(lens, l)
			rem -= l
		}
		segs = segsOf(lens...)
	}
	for _, shards := range []int{256, 1024} {
		lw := LayerWise(segs, shards)
		if err := lw.Validate(total); err != nil {
			t.Fatalf("LayerWise(%d): %v", shards, err)
		}
		bal := Balanced(total, shards)
		if err := bal.Validate(total); err != nil {
			t.Fatalf("Balanced(%d): %v", shards, err)
		}
		ideal := int64(total) * 4 / int64(shards)
		if m := bal.MaxBytes(); m > ideal+4 {
			t.Fatalf("Balanced(%d) max shard %d bytes, ideal %d", shards, m, ideal)
		}
		// Balanced's critical path can never exceed layer-wise's: layer
		// granularity only concentrates bytes.
		if bal.MaxBytes() > lw.MaxBytes() {
			t.Fatalf("Balanced max %d > LayerWise max %d at %d shards",
				bal.MaxBytes(), lw.MaxBytes(), shards)
		}
	}
}

func TestLocatorMatchesLinearScan(t *testing.T) {
	segs := segsOf(5, 5, 80, 5, 5)
	for name, a := range map[string]Assignment{
		"layerwise": LayerWise(segs, 4),
		"balanced":  Balanced(100, 7),
		"single":    Single(100),
	} {
		loc := NewLocator(a)
		for i := 0; i < 100; i++ {
			want := -1
			for s, ranges := range a {
				for _, r := range ranges {
					if i >= r.Off && i < r.Off+r.Len {
						want = s
					}
				}
			}
			if got := loc.Shard(i); got != want {
				t.Fatalf("%s: Shard(%d) = %d, want %d", name, i, got, want)
			}
		}
		if loc.Shard(-1) != -1 || loc.Shard(100) != -1 {
			t.Fatalf("%s: out-of-range index located", name)
		}
	}
}

// TestLocatorRunsMatchShard holds Runs to Shard entry by entry: every
// covered index of an ascending list lands in exactly one run, with its
// owner, the runs in order.
func TestLocatorRunsMatchShard(t *testing.T) {
	segs := segsOf(5, 5, 80, 5, 5)
	r := rng.New(3)
	for _, tc := range []struct {
		name string
		a    Assignment
	}{
		{"layerwise", LayerWise(segs, 4)},
		{"balanced", Balanced(100, 7)},
		{"single", Single(100)},
		{"gapped", Assignment{{Range{10, 20}}, {Range{50, 5}, Range{0, 10}}}},
	} {
		name, loc := tc.name, NewLocator(tc.a)
		for trial := 0; trial < 50; trial++ {
			var idx []int32
			for i := -2; i < 102; i++ {
				if r.Intn(3) == 0 {
					idx = append(idx, int32(i))
				}
			}
			var want, got []int
			for _, i := range idx {
				if s := loc.Shard(int(i)); s >= 0 {
					want = append(want, int(i), s)
				}
			}
			next := 0
			loc.Runs(idx, func(s, lo, hi int) {
				if lo < next || lo >= hi {
					t.Fatalf("%s: run [%d,%d) after %d", name, lo, hi, next)
				}
				for _, i := range idx[lo:hi] {
					got = append(got, int(i), s)
				}
				next = hi
			})
			if !slices.Equal(got, want) {
				t.Fatalf("%s: runs give (index, shard) %v, Shard %v", name, got, want)
			}
		}
	}
}

func TestLocatorAtScale(t *testing.T) {
	const total = 1 << 20
	a := Balanced(total, 1024)
	loc := NewLocator(a)
	for _, i := range []int{0, 1023, 1024, total / 2, total - 1} {
		want := i / (total / 1024)
		if got := loc.Shard(i); got != want {
			t.Fatalf("Shard(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestValidateCatchesOverlap(t *testing.T) {
	a := Assignment{{Range{0, 10}}, {Range{5, 10}}}
	if a.Validate(15) == nil {
		t.Fatal("overlap accepted")
	}
}

func TestValidateCatchesGap(t *testing.T) {
	a := Assignment{{Range{0, 5}}, {Range{10, 5}}}
	if a.Validate(15) == nil {
		t.Fatal("gap accepted")
	}
}

func TestGlobalApplyGradMatchesDirectSGD(t *testing.T) {
	r := rng.New(1)
	n := 30
	init := make([]float32, n)
	grads := make([]float32, n)
	for i := range init {
		init[i] = float32(r.NormFloat64())
		grads[i] = float32(r.NormFloat64())
	}
	g := NewGlobal(slices.Clone(init), 0.9, 0.01)
	// Sharded application over Balanced(.,3) must equal one full step.
	a := Balanced(n, 3)
	for step := 0; step < 3; step++ {
		for s := range a {
			// each shard sees the full-length gradient vector
			g.ApplyGrad(a[s], grads, 1, 0.1)
		}
	}
	want := make([]float32, n)
	copy(want, init)
	ref := opt.NewSGD(n, 0.9, 0.01)
	for step := 0; step < 3; step++ {
		ref.Step(want, grads, 0.1)
	}
	for i := range want {
		if math.Abs(float64(g.Params[i]-want[i])) > 1e-6 {
			t.Fatalf("mismatch at %d: %v vs %v", i, g.Params[i], want[i])
		}
	}
}

func TestGlobalApplyGradScale(t *testing.T) {
	init := []float32{0, 0}
	g := NewGlobal(init, 0, 0)
	grad := []float32{4, 8}
	g.ApplyGrad([]Range{{0, 2}}, grad, 0.25, 1)
	if g.Params[0] != -1 || g.Params[1] != -2 {
		t.Fatalf("params = %v", g.Params)
	}
	// caller's gradient must be untouched
	if grad[0] != 4 {
		t.Fatal("ApplyGrad mutated caller gradient")
	}
}

// TestGlobalApplyGradScaleInStep: handing scale to the optimizer is, bit for
// bit, scaling a copy of the gradient and applying that with scale 1 — for
// BSP's 1/N and for the odd factors staleness damping produces — and it
// allocates nothing.
func TestGlobalApplyGradScaleInStep(t *testing.T) {
	r := rng.New(3)
	const n = 1000 // a kernel prefix and a tail in each of the three ranges
	init, grads := make([]float32, n), make([]float32, n)
	for i := range init {
		init[i], grads[i] = float32(r.NormFloat64()), float32(r.NormFloat64())
	}
	ranges := Balanced(n, 3)
	for _, scale := range []float32{0.25, 1.0 / 3, 1 / (1 + 0.7*5), 1} {
		got, want := NewGlobal(slices.Clone(init), 0.9, 1e-4), NewGlobal(slices.Clone(init), 0.9, 1e-4)
		scaled := make([]float32, n)
		for step := 0; step < 3; step++ {
			for i, v := range grads {
				scaled[i] = v * scale
			}
			for s := range ranges {
				got.ApplyGrad(ranges[s], grads, scale, 0.1)
				want.ApplyGrad(ranges[s], scaled, 1, 0.1)
			}
		}
		for i := range want.Params {
			if math.Float32bits(got.Params[i]) != math.Float32bits(want.Params[i]) {
				t.Fatalf("scale %v: param %d = %v, scale-then-step gives %v", scale, i, got.Params[i], want.Params[i])
			}
		}
		if a := testing.AllocsPerRun(10, func() { got.ApplyGrad(ranges[0], grads, scale, 0.1) }); a != 0 {
			t.Fatalf("scale %v: ApplyGrad allocates %v times per call", scale, a)
		}
	}
}

func TestCostOnlyGlobalNoOps(t *testing.T) {
	g := NewCostOnlyGlobal()
	if g.MathOn() {
		t.Fatal("cost-only global claims math")
	}
	// All of these must be safe no-ops.
	g.ApplyGrad([]Range{{0, 4}}, nil, 1, 0.1)
	g.ApplySparse(nil, nil, 1, 0.1)
	g.ElasticUpdate([]Range{{0, 4}}, nil, 0.5)
	g.Snapshot([]Range{{0, 4}}, nil)
}

func TestElasticUpdateSymmetric(t *testing.T) {
	g := NewGlobal([]float32{0, 0}, 0, 0)
	wp := []float32{4, -4}
	g.ElasticUpdate([]Range{{0, 2}}, wp, 0.5)
	// diff = 0.5*(4-0)=2: global 0->2, worker 4->2.
	if g.Params[0] != 2 || wp[0] != 2 {
		t.Fatalf("global %v worker %v", g.Params, wp)
	}
	if g.Params[1] != -2 || wp[1] != -2 {
		t.Fatalf("global %v worker %v", g.Params, wp)
	}
}

func TestElasticUpdateConverges(t *testing.T) {
	// Repeated elastic moves pull worker and center together.
	g := NewGlobal([]float32{0}, 0, 0)
	wp := []float32{10}
	for i := 0; i < 50; i++ {
		g.ElasticUpdate([]Range{{0, 1}}, wp, 0.3)
	}
	if math.Abs(float64(wp[0]-g.Params[0])) > 1e-3 {
		t.Fatalf("did not converge: worker %v center %v", wp[0], g.Params[0])
	}
}

func TestApplySparse(t *testing.T) {
	g := NewGlobal([]float32{1, 1, 1, 1}, 0.9, 0)
	g.ApplySparse([]int32{1, 3}, []float32{2, -2}, 0.5, 0.1)
	if math.Abs(float64(g.Params[1])-0.9) > 1e-6 || math.Abs(float64(g.Params[3])-1.1) > 1e-6 {
		t.Fatalf("params = %v", g.Params)
	}
	if g.Params[0] != 1 || g.Params[2] != 1 {
		t.Fatal("untouched coordinates changed")
	}
}

func TestSnapshotCopiesOnlyRanges(t *testing.T) {
	g := NewGlobal([]float32{1, 2, 3, 4}, 0, 0)
	dst := []float32{0, 0, 0, 0}
	g.Snapshot([]Range{{1, 2}}, dst)
	if dst[0] != 0 || dst[1] != 2 || dst[2] != 3 || dst[3] != 0 {
		t.Fatalf("dst = %v", dst)
	}
}
