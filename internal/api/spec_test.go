package api

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/rng"
)

// TestNormalizeDefaults verifies the defaulting contract: a minimal spec and
// its fully spelled-out equivalent derive the same configuration.
func TestNormalizeDefaults(t *testing.T) {
	s := ExperimentSpec{Algo: "bsp"}
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.Version != SpecVersion || s.Workers != 8 || s.Model != "resnet50" ||
		s.Iters != 30 || s.Transport != TransportSim {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if s.Staleness == nil || *s.Staleness != 3 {
		t.Fatalf("staleness default: %v", s.Staleness)
	}
	// Idempotent: normalizing again must not change anything.
	before := s
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if *s.Staleness != *before.Staleness {
		t.Fatal("Normalize is not idempotent on Staleness")
	}
}

// TestNormalizeRejections covers spec-level syntax errors: missing algo,
// future version, unknown transport.
func TestNormalizeRejections(t *testing.T) {
	for name, s := range map[string]ExperimentSpec{
		"missing algo":      {},
		"future version":    {Version: "v99", Algo: "bsp"},
		"unknown transport": {Algo: "bsp", Transport: "carrier-pigeon"},
	} {
		s := s
		if err := s.Normalize(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestValidatedRejectsBadAlgo verifies Validated runs the transport's full
// validation, not just spec syntax.
func TestValidatedRejectsBadAlgo(t *testing.T) {
	s := ExperimentSpec{Algo: "not-an-algo", Workers: 2}
	if _, err := s.Validated(); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
	// Live transports require real gradient math.
	s = ExperimentSpec{Algo: "bsp", Workers: 2, Transport: TransportChan}
	if _, err := s.Validated(); err == nil {
		t.Fatal("live transport without Real accepted")
	}
}

// TestValidatedChanFaultsAsTCP: the chan transport is TCP's over pipes, so
// a fault schedule is judged alike on both: a slowdown passes, a crash
// without elastic membership is refused.
func TestValidatedChanFaultsAsTCP(t *testing.T) {
	for _, tr := range []string{TransportChan, TransportTCP} {
		s := ExperimentSpec{Algo: "bsp", Workers: 4, Transport: tr, Real: &RealSpec{},
			FaultSpec: "slow@0:w1:x3"}
		if _, err := s.Validated(); err != nil {
			t.Fatalf("%s spec with a slowdown: %v", tr, err)
		}
		s.FaultSpec = "crash@iter2:w1"
		if _, err := s.Validated(); err == nil || !strings.Contains(err.Error(), "Elastic") {
			t.Fatalf("%s spec with a crash and no elastic membership: %v", tr, err)
		}
	}
}

// TestSpecCollectiveAndOverlay verifies the additive topology fields pass
// through Config() and survive a JSON round trip without a version bump.
func TestSpecCollectiveAndOverlay(t *testing.T) {
	s := ExperimentSpec{Algo: "arsgd", Workers: 24, Collective: "hierarchical"}
	cfg, err := s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Collective != "hierarchical" {
		t.Fatalf("collective not carried: %q", cfg.Collective)
	}
	if s.Version != SpecVersion {
		t.Fatalf("additive fields bumped the version: %q", s.Version)
	}

	s = ExperimentSpec{Algo: "gosgd", Workers: 8, Overlay: "kregular", OverlayDegree: 2}
	cfg, err = s.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Overlay != "kregular" || cfg.OverlayDegree != 2 {
		t.Fatalf("overlay not carried: %q/%d", cfg.Overlay, cfg.OverlayDegree)
	}

	// Spec v1's tree_allreduce is Collective "tree"; with another name it is
	// a contradiction.
	s = ExperimentSpec{Algo: "arsgd", Workers: 8, TreeAllReduce: true}
	if cfg, err = s.Config(); err != nil || cfg.Collective != "tree" {
		t.Fatalf("tree_allreduce gave collective %q, err %v", cfg.Collective, err)
	}
	s = ExperimentSpec{Algo: "arsgd", Workers: 8, TreeAllReduce: true, Collective: "butterfly"}
	if _, err = s.Config(); err == nil || !strings.Contains(err.Error(), "conflicts with collective") {
		t.Fatalf("tree_allreduce with collective butterfly: %v", err)
	}

	// Live transports run every collective and both gossip algorithms'
	// overlays; Hogwild, a shared-memory scheme, stays simulator-only.
	s = ExperimentSpec{Algo: "arsgd", Workers: 8, Collective: "butterfly",
		Transport: TransportChan, Real: &RealSpec{}}
	if _, err := s.Validated(); err != nil {
		t.Fatalf("live transport rejected the butterfly collective: %v", err)
	}
	s = ExperimentSpec{Algo: "gosgd", Workers: 8, Overlay: "smallworld",
		Transport: TransportChan, Real: &RealSpec{}}
	if _, err := s.Validated(); err != nil {
		t.Fatalf("live transport rejected a GoSGD overlay: %v", err)
	}
	s.Algo = "adpsgd"
	if _, err := s.Validated(); err != nil {
		t.Fatalf("live transport rejected an AD-PSGD overlay: %v", err)
	}
	s = ExperimentSpec{Algo: "hogwild", Workers: 4, Transport: TransportChan, Real: &RealSpec{}}
	if _, err := s.Validated(); err == nil || !strings.Contains(err.Error(), "hogwild is simulator-only") {
		t.Fatalf("live transport and Hogwild: %v", err)
	}
}

// TestRunDeterministic verifies the exported JSON of two identical sim runs
// is byte-identical — the contract every control-plane comparison rests on.
func TestRunDeterministic(t *testing.T) {
	spec := ExperimentSpec{Algo: "asp", Workers: 4, Iters: 10, Seed: 7}
	var bufs [2]bytes.Buffer
	for i := range bufs {
		res, err := Run(context.Background(), spec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.WriteJSON(&bufs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		t.Fatalf("repeated runs diverged:\n%s\n%s", bufs[0].Bytes(), bufs[1].Bytes())
	}
}

// TestConfigNetDatasetPairs walks every net × dataset pair through the one
// spec → config path. A pair either derives a config whose model takes a
// training batch through a full forward/backward pass, or is refused with an
// error that names the net, the dataset and a dataset that would fit — never
// a shape panic in a worker goroutine, which is how `-net mlp` on the
// default dataset and `-net minicnn -dataset gauss` used to end.
func TestConfigNetDatasetPairs(t *testing.T) {
	fits := map[string]map[string]bool{
		"mlp":          {"shapes16": true, "gauss": true, "spiral": true},
		"minicnn":      {"shapes16": true},
		"miniresnet":   {"shapes16": true},
		"miniresnetbn": {"shapes16": true},
		"minivgg":      {"shapes16": true},
	}
	for net, ok := range fits {
		for _, ds := range data.Names {
			s := ExperimentSpec{Algo: "bsp", Workers: 2, Iters: 2,
				Real: &RealSpec{Net: net, Dataset: ds, Batch: 3}}
			cfg, err := s.Config()
			if !ok[ds] {
				if err == nil {
					t.Errorf("%s on %s: accepted", net, ds)
					continue
				}
				for _, want := range []string{net, ds, "shapes16"} {
					if !strings.Contains(err.Error(), want) {
						t.Errorf("%s on %s: error %q does not name %q", net, ds, err, want)
					}
				}
				continue
			}
			if err != nil {
				t.Errorf("%s on %s: %v", net, ds, err)
				continue
			}
			m := cfg.Real.Factory(rng.New(1))
			x, y := cfg.Real.Train.Gather([]int{0, 1, 2}, nil, nil)
			if loss, _ := m.Loss(x, y); loss != loss {
				t.Errorf("%s on %s: NaN loss on the first batch", net, ds)
			}
		}
	}
	s := ExperimentSpec{Algo: "bsp", Real: &RealSpec{Net: "nope"}}
	if _, err := s.Config(); err == nil || strings.Contains(err.Error(), "datasets that fit") {
		t.Errorf("unknown net: %v", err)
	}
}
