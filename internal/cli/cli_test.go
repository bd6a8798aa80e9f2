package cli

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/fault"
)

func TestFlagsConfig(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	err := fs.Parse([]string{
		"-algo", "arsgd", "-workers", "4", "-iters", "10", "-gbps", "10",
		"-elastic", "-faults", "crash@iter5:w1:restart=2",
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Algo != core.ARSGD || cfg.Workers != 4 || !cfg.Elastic {
		t.Fatalf("flags not carried into config: %+v", cfg)
	}
	if cfg.Faults == nil || len(cfg.Faults.Events) != 1 || cfg.Faults.Events[0].Kind != fault.Crash {
		t.Fatalf("fault spec not parsed: %+v", cfg.Faults)
	}
	if res, err := core.Run(context.Background(), cfg); err != nil {
		t.Fatalf("flag-built config does not run: %v", err)
	} else if res.Metrics.Faults.Crashes != 1 {
		t.Fatalf("schedule did not fire: %+v", res.Metrics.Faults)
	}
}

func TestFlagsCollectiveAndOverlay(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-algo", "arsgd", "-workers", "24", "-collective", "hierarchical"}); err != nil {
		t.Fatal(err)
	}
	spec, err := f.Spec()
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := spec.Config()
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Collective != "hierarchical" {
		t.Fatalf("collective flag not carried: %q", cfg.Collective)
	}

	fs = flag.NewFlagSet("test", flag.ContinueOnError)
	f = Register(fs)
	if err := fs.Parse([]string{"-algo", "gosgd", "-workers", "8", "-overlay", "kregular", "-overlaydeg", "2"}); err != nil {
		t.Fatal(err)
	}
	if spec, err = f.Spec(); err != nil {
		t.Fatal(err)
	}
	if cfg, err = spec.Config(); err != nil {
		t.Fatal(err)
	}
	if cfg.Overlay != "kregular" || cfg.OverlayDegree != 2 {
		t.Fatalf("overlay flags not carried: %q/%d", cfg.Overlay, cfg.OverlayDegree)
	}
}

func TestFlagsConfigRejectsBadSpec(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := Register(fs)
	if err := fs.Parse([]string{"-faults", "crash@nonsense"}); err != nil {
		t.Fatal(err)
	}
	spec, err := f.Spec()
	if err == nil {
		_, err = spec.Config()
	}
	if err == nil {
		t.Fatal("malformed -faults accepted")
	}
}

func TestLoadFaultsJSONAndSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sched.json")
	blob := `{"events": [{"kind": "drop", "at": 5, "machine": -1, "prob": 0.1, "duration": 20}]}`
	if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := LoadFaults("crash@iter3:w0", path)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 2 || s.Events[0].Kind != fault.Crash || s.Events[1].Kind != fault.Drop {
		t.Fatalf("spec+file combine: %+v", s.Events)
	}
	if s.Events[1].Prob != 0.1 || s.Events[1].Machine != -1 {
		t.Fatalf("JSON fields lost: %+v", s.Events[1])
	}
	if s, err := LoadFaults("", ""); err != nil || s != nil {
		t.Fatalf("empty inputs: %v, %v", s, err)
	}
	if _, err := LoadFaults("", filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing schedule file accepted")
	}
}
