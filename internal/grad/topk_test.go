package grad

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"disttrain/internal/rng"
)

// topKIndices is the compressor's selection on a fresh selector, as []int.
func topKIndices(v []float32, k int) []int {
	var s selector
	idx := s.pick(v, k)
	out := make([]int, len(idx))
	for j, i := range idx {
		out[j] = int(i)
	}
	return out
}

// refTopK is the selection spelled out: a full stable sort by magnitude
// descending (NaN above every number, among NaNs by bit pattern), ties
// toward the lower index, whose first k indices come back ascending.
func refTopK(v []float32, k int) []int {
	rank := func(x float32) (nan bool, a float64) {
		if x != x {
			return true, float64(key(x))
		}
		return false, math.Abs(float64(x))
	}
	ref := make([]int, len(v))
	for i := range ref {
		ref[i] = i
	}
	sort.SliceStable(ref, func(a, b int) bool {
		na, aa := rank(v[ref[a]])
		nb, ab := rank(v[ref[b]])
		if na != nb {
			return na
		}
		if aa != ab {
			return aa > ab
		}
		return ref[a] < ref[b]
	})
	want := slices.Clone(ref[:min(k, len(v))])
	sort.Ints(want)
	return want
}

// warmupKs returns the k's a compressor of n entries selects over the
// warm-up schedule the api's DGC spec uses (Ratio 0.001, warm-up Iters/5) in
// a run of iters iterations.
func warmupKs(n, iters int) []int {
	cfg := DefaultDGC(0.9, iters/5)
	var ks []int
	for it := 0; it < iters; it++ {
		k := max(1, min(n, int(float64(n)*cfg.RatioAt(it))))
		if !slices.Contains(ks, k) {
			ks = append(ks, k)
		}
	}
	return ks
}

// TestTopKMatchesReferenceAtScale holds the selection to the reference sort
// at the sizes and k's DGC runs at, on data that puts the k-th entry deep in
// a crowded boundary bin: normals, heavy ties sharing the top 11 key bits
// and differing below them, and an all-equal vector.
func TestTopKMatchesReferenceAtScale(t *testing.T) {
	if got := warmupKs(69610, 10); !slices.Equal(got, []int{69610, 2201, 69}) {
		t.Fatalf("warm-up k's at 10 iterations %v, want ratios 1, 0.0316, 0.001", got)
	}
	gens := map[string]func(r *rng.RNG, i int) float32{
		"normal": func(r *rng.RNG, _ int) float32 { return float32(r.NormFloat64()) },
		// One bin (bits of 1.0 above the low 20) holds most entries, with
		// four values of the next 10 bits and three of the last, both signs;
		// fewer than 0.1 % sit in the bin above it and 1/16 in one below, so
		// every warm-up k but the dense one cuts through the crowded bin.
		"ties": func(r *rng.RNG, _ int) float32 {
			if r.Intn(2048) == 0 {
				return 2
			}
			if r.Intn(16) == 0 {
				return -0.5
			}
			x := math.Float32frombits(math.Float32bits(1) + uint32(r.Intn(4))<<10 + uint32(r.Intn(3)))
			if r.Intn(2) == 0 {
				x = -x
			}
			return x
		},
		"equal": func(*rng.RNG, int) float32 { return -0.25 },
	}
	for _, n := range []int{1000, 69610, 1 << 17} {
		ks := append(warmupKs(n, 10), 1, n-1)
		for _, name := range []string{"normal", "ties", "equal"} {
			r := rng.New(uint64(n))
			v := make([]float32, n)
			for i := range v {
				v[i] = gens[name](r, i)
			}
			for _, k := range ks {
				t.Run(fmt.Sprintf("%s/n%d/k%d", name, n, k), func(t *testing.T) {
					if got, want := topKIndices(v, k), refTopK(v, k); !slices.Equal(got, want) {
						t.Fatalf("selection differs from the reference sort")
					}
				})
			}
		}
	}
}

// TestTopKReusedScratch holds a selector reused across calls of changing k
// and data — the compressor's case — to a fresh one.
func TestTopKReusedScratch(t *testing.T) {
	var s selector
	r := rng.New(7)
	for call := 0; call < 40; call++ {
		n := 1 + r.Intn(5000)
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(r.Intn(9)-4) * 0.125
		}
		k := 1 + r.Intn(n)
		got := make([]int, 0, k)
		for _, i := range s.pick(v, k) {
			got = append(got, int(i))
		}
		if want := refTopK(v, k); !slices.Equal(got, want) {
			t.Fatalf("call %d (n %d, k %d): reused selector differs from the reference", call, n, k)
		}
	}
}

// TestDGCNaNContract pins Compress's ranking of the special values: NaN
// above +Inf and so shipped, ±Inf tied, subnormals below every normal, ±0
// tied below them, ties toward the lower index.
func TestDGCNaNContract(t *testing.T) {
	nan := float32(math.NaN())
	inf := float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	tiny := math.Float32frombits(1)          // smallest subnormal
	bigSub := math.Float32frombits(0x7fffff) // largest subnormal
	v := []float32{1, negZero, -inf, tiny, nan, 0, inf, -bigSub, -2, 0x1p-126}
	// Rank order: NaN, -Inf, +Inf, -2, 1, 2^-126, -bigSub, tiny, -0, +0.
	rank := []int{4, 2, 6, 8, 0, 9, 7, 3, 1, 5}
	for k := 1; k <= len(v); k++ {
		cfg := DGCConfig{Ratio: min(1, (float64(k)+0.5)/float64(len(v))), NoMomentumCorrection: true}
		c := NewCompressor(cfg, len(v))
		sp := c.Compress(v)
		want := slices.Clone(rank[:k])
		sort.Ints(want)
		got := make([]int, len(sp.Idx))
		for j, i := range sp.Idx {
			got[j] = int(i)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("k %d: selected %v, want %v", k, got, want)
		}
		if !slices.Equal(got, refTopK(v, k)) {
			t.Fatalf("k %d: the reference sort disagrees with the pinned rank", k)
		}
		// The NaN is shipped, not held back: the receiver gets it and the
		// residual keeps none.
		if j := slices.Index(got, 4); j < 0 || sp.Val[j] == sp.Val[j] {
			t.Fatalf("k %d: NaN not shipped: %v", k, sp.Val)
		}
		if res := c.Residual()[4]; res != 0 {
			t.Fatalf("k %d: residual keeps %v at the NaN's index", k, res)
		}
	}
}

// TestDGCCompressAllocs is the compressor's allocation budget: once the
// warm-up's dense first step (whose lists are not kept) and its first
// sparse one (the largest k, which sizes the scratch) have run, Compress
// allocates nothing, through the rest of the warm-up and after it.
func TestDGCCompressAllocs(t *testing.T) {
	const n = 69610
	c := NewCompressor(DefaultDGC(0.9, 4), n)
	r := rng.New(9)
	g := make([]float32, n)
	for i := range g {
		g[i] = float32(r.NormFloat64())
	}
	c.Compress(g)
	c.Compress(g)
	if allocs := testing.AllocsPerRun(10, func() { c.Compress(g) }); allocs != 0 {
		t.Fatalf("Compress allocates %v times per call after the first", allocs)
	}
}

// BenchmarkCompressAtRatio times Compress on MiniVGG's gradient length at
// the three ratios DGC's warm-up passes through over ten iterations (dense,
// 3.16 %, 0.1 %), each on a compressor held at that ratio.
func BenchmarkCompressAtRatio(b *testing.B) {
	const n = 69610
	r := rng.New(1)
	g := make([]float32, n)
	for i := range g {
		g[i] = 0.01 * float32(r.NormFloat64())
	}
	for _, ratio := range []float64{1, 0.0316, 0.001} {
		b.Run(fmt.Sprint(ratio), func(b *testing.B) {
			c := NewCompressor(DGCConfig{Ratio: ratio, Momentum: 0.9, ClipNorm: 2}, n)
			c.Compress(g)
			b.SetBytes(4 * n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Compress(g)
			}
		})
	}
}
