package data

import (
	"testing"
	"testing/quick"

	"disttrain/internal/rng"
)

func TestGenShapesDeterministic(t *testing.T) {
	a := GenShapes16(rng.New(1), 50)
	b := GenShapes16(rng.New(1), 50)
	for i := range a.X.Data {
		if a.X.Data[i] != b.X.Data[i] {
			t.Fatal("shapes16 not deterministic")
		}
	}
	for i := range a.Y {
		if a.Y[i] != b.Y[i] {
			t.Fatal("labels not deterministic")
		}
	}
}

func TestGenShapesLabelsInRange(t *testing.T) {
	d := GenShapes16(rng.New(2), 500)
	counts := make([]int, ShapeClasses)
	for _, y := range d.Y {
		if y < 0 || y >= ShapeClasses {
			t.Fatalf("label %d out of range", y)
		}
		counts[y]++
	}
	for c, n := range counts {
		if n == 0 {
			t.Fatalf("class %d never generated", c)
		}
	}
}

func TestShapesClassesAreDistinct(t *testing.T) {
	// Mean images of different classes must differ substantially, otherwise
	// the task is unlearnable and accuracy experiments are meaningless.
	d := GenShapes16(rng.New(3), 2000)
	const px = 16 * 16
	means := make([][]float64, ShapeClasses)
	counts := make([]int, ShapeClasses)
	for i := range means {
		means[i] = make([]float64, px)
	}
	for i, y := range d.Y {
		for j := 0; j < px; j++ {
			means[y][j] += float64(d.X.Data[i*px+j])
		}
		counts[y]++
	}
	for c := range means {
		for j := range means[c] {
			means[c][j] /= float64(counts[c])
		}
	}
	for a := 0; a < ShapeClasses; a++ {
		for b := a + 1; b < ShapeClasses; b++ {
			var dist float64
			for j := 0; j < px; j++ {
				diff := means[a][j] - means[b][j]
				dist += diff * diff
			}
			if dist < 0.5 {
				t.Fatalf("classes %d and %d have near-identical means (d²=%v)", a, b, dist)
			}
		}
	}
}

func TestGaussAndSpiralShapes(t *testing.T) {
	g := GenGauss(rng.New(4), 100, 4, 0.3)
	if g.N() != 100 || g.Classes != 4 || g.X.Shape[1] != 2 {
		t.Fatalf("gauss shape wrong: %v classes %d", g.X.Shape, g.Classes)
	}
	s := GenSpiral(rng.New(5), 80, 3, 0.1)
	if s.N() != 80 || s.Classes != 3 {
		t.Fatalf("spiral wrong: n=%d classes=%d", s.N(), s.Classes)
	}
}

func TestSplitDisjointAndComplete(t *testing.T) {
	d := GenGauss(rng.New(6), 100, 3, 0.2)
	train, test := d.Split(rng.New(7), 20)
	if train.N() != 80 || test.N() != 20 {
		t.Fatalf("split sizes %d/%d", train.N(), test.N())
	}
	if train.Classes != 3 || test.Classes != 3 {
		t.Fatal("classes not propagated")
	}
}

func TestSplitPanicsOnBadSize(t *testing.T) {
	d := GenGauss(rng.New(6), 10, 2, 0.2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Split(rng.New(1), 10)
}

func TestShardIndicesPartition(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 1 + r.Intn(500)
		workers := 1 + r.Intn(24)
		seen := make([]bool, n)
		for w := 0; w < workers; w++ {
			for _, i := range ShardIndices(n, workers, w) {
				if i < 0 || i >= n || seen[i] {
					return false
				}
				seen[i] = true
			}
		}
		for _, s := range seen {
			if !s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestShardBalance(t *testing.T) {
	for _, workers := range []int{2, 3, 7, 24} {
		min, max := 1<<30, 0
		for w := 0; w < workers; w++ {
			n := len(ShardIndices(1000, workers, w))
			if n < min {
				min = n
			}
			if n > max {
				max = n
			}
		}
		if max-min > 1 {
			t.Fatalf("workers=%d: shard sizes differ by %d", workers, max-min)
		}
	}
}

func TestSamplerCoversShardEachEpoch(t *testing.T) {
	shard := ShardIndices(40, 4, 1) // indices 10..19
	s := NewSampler(shard, 5, rng.New(8))
	seen := map[int]int{}
	for b := 0; b < len(shard)/5; b++ {
		for _, i := range s.Next() {
			seen[i]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("epoch covered %d of 10 shard samples", len(seen))
	}
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d drawn %d times in one epoch", i, c)
		}
	}
}

func TestSamplerEpochCounter(t *testing.T) {
	s := NewSampler(ShardIndices(20, 1, 0), 5, rng.New(9))
	for i := 0; i < 8; i++ { // 4 batches per epoch, draw 2 epochs
		s.Next()
	}
	// The 9th draw triggers a reshuffle into epoch 2.
	s.Next()
	if s.Epoch() != 2 {
		t.Fatalf("epoch = %d, want 2", s.Epoch())
	}
}

func TestSamplerBatchClamped(t *testing.T) {
	s := NewSampler([]int{1, 2, 3}, 10, rng.New(10))
	if got := len(s.Next()); got != 3 {
		t.Fatalf("batch = %d, want clamped 3", got)
	}
}

func TestGatherCopiesCorrectSamples(t *testing.T) {
	d := GenGauss(rng.New(11), 50, 3, 0.2)
	x, y := d.Gather([]int{3, 7}, nil, nil)
	if x.Shape[0] != 2 || x.Shape[1] != 2 {
		t.Fatalf("gather shape %v", x.Shape)
	}
	if x.Data[0] != d.X.Data[6] || x.Data[1] != d.X.Data[7] {
		t.Fatal("gather copied wrong sample 0")
	}
	if y[0] != d.Y[3] || y[1] != d.Y[7] {
		t.Fatal("gather copied wrong labels")
	}
}

func TestGatherReusesBuffers(t *testing.T) {
	d := GenGauss(rng.New(12), 20, 2, 0.2)
	x1, y1 := d.Gather([]int{0, 1, 2}, nil, nil)
	x2, y2 := d.Gather([]int{3, 4, 5}, x1, y1)
	if &x2.Data[0] != &x1.Data[0] {
		t.Fatal("buffer not reused")
	}
	if &y2[0] != &y1[0] {
		t.Fatal("label buffer not reused")
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"shapes16", "gauss", "spiral"} {
		d, err := ByName(name, rng.New(1), 32)
		if err != nil || d.N() != 32 {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("bogus", rng.New(1), 10); err == nil {
		t.Fatal("expected error")
	}
}
