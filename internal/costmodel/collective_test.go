package costmodel

import (
	"testing"

	"disttrain/internal/cluster"
)

func TestRingPredictionBandwidthBound(t *testing.T) {
	// Full ResNet-50 gradient at 24 workers on 10G: the NIC occupancy
	// dominates, so the prediction must be ≈ 2(n-1)/n · B/bw.
	c := cluster.Paper10G(24)
	const B = 94 << 20
	got := RingAllReduceSec(c, 24, B)
	want := 2 * 23.0 / 24.0 * float64(B) / c.InterBytesPerSec
	if rel := (got - want) / want; rel < -0.01 || rel > 0.25 {
		t.Fatalf("ring(24, 94MB) = %.4g, want near %.4g", got, want)
	}
}

func TestRingPredictionLatencyBound(t *testing.T) {
	// Tiny payload: every one of the 2(n-1) steps pays the hop latency.
	c := cluster.Paper10G(24)
	got := RingAllReduceSec(c, 24, 1024)
	floor := 2 * 23.0 * c.LatencySec
	if got < floor {
		t.Fatalf("ring(24, 1KB) = %.4g below the latency floor %.4g", got, floor)
	}
}

func TestHierarchicalWinsLatencyBoundRegime(t *testing.T) {
	// The regime the scaling study headlines: compressed-class gradients on
	// 10G, where the leaders ring's 2(M-1)-step chain beats the flat ring's
	// 2(n-1) steps at every multi-machine scale.
	const B = 470 << 10
	for _, n := range []int{8, 24, 64, 256, 1024} {
		c := cluster.Paper10G(n)
		ring := RingAllReduceSec(c, n, B)
		hier := HierarchicalAllReduceSec(c, n, B)
		if hier >= ring {
			t.Errorf("n=%d: hierarchical %.4g >= ring %.4g at 470KB", n, hier, ring)
		}
	}
}

func TestRingWinsBandwidthBoundRegime(t *testing.T) {
	// Full-gradient counterpoint: the flat ring is near bandwidth-optimal,
	// so with a 94 MB payload at moderate scale it beats the hierarchy
	// (whose serial bus gather is payload-proportional).
	const B = 94 << 20
	c := cluster.Paper10G(64)
	ring := RingAllReduceSec(c, 64, B)
	hier := HierarchicalAllReduceSec(c, 64, B)
	if ring >= hier {
		t.Fatalf("ring %.4g >= hierarchical %.4g at 94MB, 64 workers", ring, hier)
	}
}

func TestPredictAllReduceSecDispatch(t *testing.T) {
	c := cluster.Paper10G(24)
	for _, name := range []string{"", "ring", "tree", "hierarchical", "butterfly", "torus"} {
		got, err := PredictAllReduceSec(name, c, 24, 1<<20)
		if err != nil {
			t.Fatalf("%q: %v", name, err)
		}
		if got <= 0 {
			t.Fatalf("%q: non-positive prediction %v", name, got)
		}
	}
	if _, err := PredictAllReduceSec("hypercube", c, 24, 1<<20); err == nil {
		t.Fatal("unknown collective accepted")
	}
	if _, err := PredictAllReduceSec("torus", c, 7, 1<<20); err == nil {
		t.Fatal("prime torus accepted")
	}
}
