package core

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"testing"

	"disttrain/internal/topo"
)

// runCaptured runs an AR-SGD real-math config with the given collective and
// returns every replica's final parameter vector.
func runCaptured(t *testing.T, workers, iters int, collective string, wfbp bool) [][]float32 {
	t.Helper()
	cfg := realConfig(ARSGD, workers, iters, 5)
	cfg.Collective = collective
	cfg.WaitFreeBP = wfbp
	cfg.CaptureParams = true
	res, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("%s: %v", collective, err)
	}
	if len(res.WorkerParams) != workers {
		t.Fatalf("%s: captured %d replicas, want %d", collective, len(res.WorkerParams), workers)
	}
	return res.WorkerParams
}

func paramsBitEqual(a, b []float32) bool {
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

// requireReplicasAgree checks what every AllReduce variant owes AR-SGD: all
// replicas of the run hold the same bits. Against the ring run of the same
// config the variant is a different summation tree, so the parameters agree
// only to rounding.
func requireReplicasAgree(t *testing.T, name string, got, ring [][]float32) {
	t.Helper()
	for w := 1; w < len(got); w++ {
		if !paramsBitEqual(got[0], got[w]) {
			t.Fatalf("%s: replica %d diverged from replica 0", name, w)
		}
	}
	for i, v := range got[0] {
		if d := math.Abs(float64(v - ring[0][i])); d > 1e-3 {
			t.Fatalf("%s: param %d is %g from the ring run's (%v vs %v)", name, i, d, v, ring[0][i])
		}
	}
}

// TestARSGDTopoCollectivesBitIdentical is the end-to-end acceptance check:
// under the hierarchical, butterfly or torus AllReduce all replicas stay
// bit-identical to each other for 25 iterations and within rounding of the
// ring run — including non-power-of-two and odd worker counts, where
// butterfly's pre/post folding and hierarchical's partial last machine are
// exercised.
func TestARSGDTopoCollectivesBitIdentical(t *testing.T) {
	for _, W := range []int{5, 6, 8} {
		ring := runCaptured(t, W, 25, "ring", false)
		requireReplicasAgree(t, fmt.Sprintf("ring W=%d", W), ring, ring)
		for _, col := range []string{"hierarchical", "butterfly", "torus"} {
			if col == "torus" {
				if _, _, err := topo.TorusShape(W); err != nil {
					continue // prime worker counts have no rectangular grid
				}
			}
			requireReplicasAgree(t, fmt.Sprintf("%s W=%d", col, W), runCaptured(t, W, 25, col, false), ring)
		}
	}
}

// TestARSGDTopoCollectivesBitIdenticalWFBP covers the wait-free-BP path,
// where the gradient reduces in two buckets per iteration and the
// topology-aware collectives rely on the persistent cross-round stash.
func TestARSGDTopoCollectivesBitIdenticalWFBP(t *testing.T) {
	const W = 8
	ring := runCaptured(t, W, 25, "ring", true)
	for _, col := range []string{"hierarchical", "butterfly", "torus"} {
		requireReplicasAgree(t, col+" (wait-free BP)", runCaptured(t, W, 25, col, true), ring)
	}
}

// TestOverlayGossipDeterministic pins the overlay-driven gossip paths the
// same way TestPoolSizeBitIdentical pins the compute pool: a fixed-seed run
// over a sparse overlay must export a byte-identical summary every time,
// regardless of compute-pool size.
func TestOverlayGossipDeterministic(t *testing.T) {
	cases := []struct {
		algo    Algo
		overlay string
		degree  int
	}{
		{ADPSGD, "kregular", 2},
		{ADPSGD, "smallworld", 2},
		{GoSGD, "kregular", 4},
		{GoSGD, "smallworld", 3},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(string(tc.algo)+"/"+tc.overlay, func(t *testing.T) {
			cfg := realConfig(tc.algo, 8, 40, 5)
			cfg.Overlay = tc.overlay
			cfg.OverlayDegree = tc.degree
			want := poolSummary(t, cfg, 0)
			if got := poolSummary(t, cfg, 0); !bytes.Equal(want, got) {
				t.Fatalf("%s/%s: repeated run differs", tc.algo, tc.overlay)
			}
			if got := poolSummary(t, cfg, 4); !bytes.Equal(want, got) {
				t.Fatalf("%s/%s: summary differs between pool 0 and pool 4", tc.algo, tc.overlay)
			}
		})
	}
}

// TestOverlayChangesGossipPattern guards the wiring itself: restricting
// GoSGD to a degree-2 ring overlay must change which peers receive pushes,
// and therefore the exported summary, relative to uniform selection.
func TestOverlayChangesGossipPattern(t *testing.T) {
	base := realConfig(GoSGD, 8, 40, 5)
	uniform := poolSummary(t, base, 0)
	ring := base
	ring.Overlay = "smallworld"
	ring.OverlayDegree = 2 // no chords: the pure gossip ring
	if got := poolSummary(t, ring, 0); bytes.Equal(uniform, got) {
		t.Fatal("ring overlay produced the same run as uniform partner selection")
	}
}

// TestOverlaySeedStability: the overlay graph derives from the experiment
// seed, so two seeds must (generically) give different gossip patterns
// while the same seed reproduces exactly.
func TestOverlaySeedStability(t *testing.T) {
	mk := func(seed uint64) Config {
		cfg := realConfig(GoSGD, 8, 40, seed)
		cfg.Overlay = "kregular"
		cfg.OverlayDegree = 2
		return cfg
	}
	a := poolSummary(t, mk(5), 0)
	b := poolSummary(t, mk(6), 0)
	if bytes.Equal(a, b) {
		t.Fatal("different seeds produced identical summaries")
	}
}

// TestTopoConfigRejects covers the new Validate rules with pointed errors.
func TestTopoConfigRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"unknown collective", func(c *Config) { c.Collective = "hypercube" }},
		{"collective on non-ARSGD", func(c *Config) { c.Algo = BSP; c.Collective = "hierarchical" }},
		{"torus on prime world", func(c *Config) { c.Workers = 7; c.Cluster.Machines = 2; c.Collective = "torus" }},
		{"elastic with topo collective", func(c *Config) { c.Elastic = true; c.Collective = "hierarchical" }},
		{"overlay on ARSGD", func(c *Config) { c.Overlay = "kregular" }},
		{"infeasible kregular degree", func(c *Config) {
			c.Algo = GoSGD
			c.GossipP = 0.5
			c.Workers = 5
			c.Cluster.Machines = 2
			c.Overlay = "kregular"
			c.OverlayDegree = 3
		}},
		{"overlay degree >= world", func(c *Config) { c.Algo = GoSGD; c.GossipP = 0.5; c.Overlay = "smallworld"; c.OverlayDegree = 8 }},
		{"unknown overlay", func(c *Config) { c.Algo = ADPSGD; c.Overlay = "expander" }},
		{"degree without overlay", func(c *Config) { c.OverlayDegree = 4 }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := costConfig(ARSGD, 8, 5)
			tc.mutate(&cfg)
			if _, err := Run(context.Background(), cfg); err == nil {
				t.Fatalf("%s: accepted", tc.name)
			}
		})
	}
}
