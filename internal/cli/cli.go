// Package cli holds the flag and setup boilerplate shared by cmd/disttrain
// and the runnable examples: experiment-flag registration, spec/config
// assembly, fault-schedule loading, signal-aware contexts, and run-or-die
// helpers. Keeping it in one place means every entry point exposes the same
// knobs with the same semantics.
//
// Flags do not assemble a core.Config: Spec builds the canonical
// api.ExperimentSpec (the same document the HTTP control plane accepts),
// and a local run hands it to api.Run as cmd/expd's workers do — so a
// flag-driven run and a spec submitted to cmd/expd go through one
// derivation and one report path.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"disttrain/internal/api"
	"disttrain/internal/core"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/fault"
	"disttrain/internal/live"
	"disttrain/internal/rng"
)

// Flags is the bundle of experiment flags shared by the CLI tools. Register
// binds them onto a FlagSet; Spec assembles the canonical ExperimentSpec
// after parsing.
type Flags struct {
	Algo      string
	Workers   int
	Model     string
	Gbps      float64
	Iters     int
	Seed      uint64
	Shard     string
	WFBP      bool
	DGC       bool
	Quant8    bool
	QuantF16  bool
	LocalAgg  bool
	Staleness int
	Tau       int
	GossipP   float64
	LR        float64

	Collective string
	Overlay    string
	OverlayDeg int

	Real     bool
	Dataset  string
	Net      string
	Batch    int
	Pool     int
	AugShift int
	AugFlip  float64

	FaultSpec string
	FaultFile string
	Elastic   bool
	Timeout   float64

	Transport  string
	Role       string
	Coord      string
	MeshListen string
	CkptDir    string
	CkptEvery  int
	Rejoin     int
}

// Register binds the shared experiment flags onto fs and returns the
// destination struct. Call fs.Parse (or flag.Parse for the default set)
// before reading it.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Algo, "algo", "bsp", "algorithm: bsp|asp|ssp|easgd|arsgd|gosgd|adpsgd|dpsgd|hogwild|adacomm")
	fs.IntVar(&f.Workers, "workers", 8, "number of workers (GPUs)")
	fs.StringVar(&f.Model, "model", "resnet50", "cost model: resnet50|vgg16|bertbase")
	fs.Float64Var(&f.Gbps, "gbps", 56, "inter-machine bandwidth (10 or 56)")
	fs.IntVar(&f.Iters, "iters", 30, "training iterations per worker")
	fs.Uint64Var(&f.Seed, "seed", 1, "random seed")
	fs.StringVar(&f.Shard, "shard", "none", "PS sharding: none|layerwise|balanced")
	fs.BoolVar(&f.WFBP, "wfbp", false, "enable wait-free backpropagation")
	fs.BoolVar(&f.DGC, "dgc", false, "enable deep gradient compression")
	fs.BoolVar(&f.Quant8, "quant8", false, "8-bit gradient quantization (layers on -dgc)")
	fs.BoolVar(&f.QuantF16, "quantf16", false, "fp16 gradient quantization (layers on -dgc)")
	fs.BoolVar(&f.LocalAgg, "localagg", false, "enable BSP local aggregation")
	fs.IntVar(&f.Staleness, "staleness", 3, "SSP staleness threshold s")
	fs.IntVar(&f.Tau, "tau", 8, "EASGD communication period")
	fs.Float64Var(&f.GossipP, "p", 0.01, "GoSGD gossip probability")
	fs.Float64Var(&f.LR, "lr", 0.1, "learning-rate base")
	fs.StringVar(&f.Collective, "collective", "", "AR-SGD AllReduce: ring|tree|hierarchical|butterfly|torus (empty = ring)")
	fs.StringVar(&f.Overlay, "overlay", "", "AD-PSGD/GoSGD gossip overlay: kregular|smallworld (empty = uniform partner selection); runs on every transport")
	fs.IntVar(&f.OverlayDeg, "overlaydeg", 0, "overlay neighbor degree per rank (0 = default 4)")

	fs.BoolVar(&f.Real, "real", false, "real gradient math (accuracy mode)")
	fs.StringVar(&f.Dataset, "dataset", "shapes16", "real mode dataset: shapes16|gauss|spiral")
	fs.StringVar(&f.Net, "net", "minicnn", "real mode model: mlp|minicnn|miniresnet|miniresnetbn|minivgg (the conv nets train on shapes16 only)")
	fs.IntVar(&f.Batch, "batch", 8, "real mode per-worker batch size")
	fs.IntVar(&f.Pool, "pool", 0, "compute pool goroutines for real gradient math (0 = one per CPU, <0 = serial inline); results are identical for every value")
	fs.IntVar(&f.AugShift, "augshift", 0, "real mode augmentation: max per-axis pixel shift (0 = off)")
	fs.Float64Var(&f.AugFlip, "augflip", 0, "real mode augmentation: horizontal-flip probability (0 = off)")

	fs.StringVar(&f.FaultSpec, "faults", "", "fault schedule spec, e.g. 'crash@iter20:w3:restart=5;drop@10:p=0.05:for=60'")
	fs.StringVar(&f.FaultFile, "faultsjson", "", "JSON file with a fault schedule ({\"events\": [...]})")
	fs.BoolVar(&f.Elastic, "elastic", false, "elastic membership: barriers exclude crashed workers instead of stalling")
	fs.Float64Var(&f.Timeout, "timeout", 0, "barrier timeout in virtual seconds (0 = 5 mean iterations)")

	fs.StringVar(&f.Transport, "transport", "sim", "execution backend: sim (virtual-time simulator) | tcp (live TCP) | chan (live, data plane over in-memory pipes); live backends require -real")
	fs.StringVar(&f.Role, "role", "", "live multi-process role: coordinator|worker (empty = single-process loopback harness)")
	fs.StringVar(&f.Coord, "coord", "127.0.0.1:9901", "coordinator address: listen address for -role=coordinator, dial address for -role=worker")
	fs.StringVar(&f.MeshListen, "meshlisten", "127.0.0.1:0", "live worker's mesh listen address (use a peer-reachable host:0 for multi-machine runs)")
	fs.StringVar(&f.CkptDir, "ckptdir", "", "live checkpoint directory (empty = no checkpoints; required to survive crash faults)")
	fs.IntVar(&f.CkptEvery, "ckptevery", 1, "live checkpoint cadence in iterations")
	fs.IntVar(&f.Rejoin, "rejoin", -1, "restarted live worker: rejoin an in-flight run as this rank (requires -ckptdir and a crash schedule)")
	return f
}

// Spec assembles the canonical api.ExperimentSpec from the parsed flags —
// the same document a -server run submits to cmd/expd. Schedule files are
// read here (the spec carries plain data, not file paths), so syntax errors
// surface before any run or submission starts.
func (f *Flags) Spec() (api.ExperimentSpec, error) {
	staleness := f.Staleness
	spec := api.ExperimentSpec{
		Version:       api.SpecVersion,
		Algo:          f.Algo,
		Workers:       f.Workers,
		Model:         f.Model,
		Gbps:          f.Gbps,
		Iters:         f.Iters,
		Seed:          f.Seed,
		LR:            f.LR,
		Staleness:     &staleness,
		Tau:           f.Tau,
		GossipP:       f.GossipP,
		Collective:    f.Collective,
		Overlay:       f.Overlay,
		OverlayDegree: f.OverlayDeg,
		Sharding:      f.Shard,
		WaitFreeBP:    f.WFBP,
		DGC:           f.DGC,
		Quantize8:     f.Quant8,
		QuantizeF16:   f.QuantF16,
		LocalAgg:      f.LocalAgg,
		FaultSpec:     f.FaultSpec,
		Elastic:       f.Elastic,
		TimeoutSec:    f.Timeout,
		Transport:     f.Transport,
		Pool:          f.Pool,
		CkptDir:       f.CkptDir,
		CkptEvery:     f.CkptEvery,
	}
	if f.FaultFile != "" {
		sched, err := LoadFaults("", f.FaultFile)
		if err != nil {
			return api.ExperimentSpec{}, err
		}
		spec.Faults = sched
	}
	if f.Real {
		spec.Real = &api.RealSpec{
			Dataset:     f.Dataset,
			Net:         f.Net,
			Batch:       f.Batch,
			AugShift:    f.AugShift,
			AugFlipProb: f.AugFlip,
		}
	}
	return spec, nil
}

// LoadFaults builds a fault schedule from a compact spec string and/or a
// JSON schedule file; events from both are combined. Returns nil when both
// are empty.
func LoadFaults(spec, file string) (*fault.Schedule, error) {
	var s *fault.Schedule
	if spec != "" {
		var err error
		if s, err = fault.ParseSpec(spec); err != nil {
			return nil, err
		}
	}
	if file != "" {
		raw, err := os.ReadFile(file)
		if err != nil {
			return nil, fmt.Errorf("fault schedule file: %w", err)
		}
		var fs fault.Schedule
		if err := json.Unmarshal(raw, &fs); err != nil {
			return nil, fmt.Errorf("fault schedule file %s: %w", file, err)
		}
		if s == nil {
			s = &fs
		} else {
			s.Events = append(s.Events, fs.Events...)
		}
	}
	return s, nil
}

// Context returns a context canceled on SIGINT/SIGTERM, so an interrupted
// run unwinds through core.Run's cancellation path instead of dying
// mid-print.
func Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// RunLive runs this process's part of a multi-process live run, the one the
// -role flag names, with the spec's live options and o's. A nil result with
// nil error means this process was a worker: it trained to completion, and
// the coordinator process owns the run's result.
func (f *Flags) RunLive(spec api.ExperimentSpec, o *api.RunOptions) (*api.RunResult, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	if spec.Transport != api.TransportTCP {
		return nil, fmt.Errorf("cli: -role applies only to -transport=tcp")
	}
	opts := spec.LiveOptions(o)
	switch f.Role {
	case "coordinator":
		res, err := live.RunCoordinator(cfg, f.Coord, opts...)
		if err != nil {
			return nil, err
		}
		return api.FromLive(res), nil
	case "worker":
		if f.Rejoin >= 0 {
			return nil, live.RunWorkerRejoin(cfg, f.Coord, f.Rejoin, opts...)
		}
		return nil, live.RunWorker(cfg, f.Coord, f.MeshListen, opts...)
	default:
		return nil, fmt.Errorf("cli: unknown -role %q (want coordinator or worker)", f.Role)
	}
}

// MustRun runs one experiment and exits the process on error.
func MustRun(ctx context.Context, cfg core.Config) *core.Result {
	res, err := core.Run(ctx, cfg)
	if err != nil {
		Fatal(err)
	}
	return res
}

// ShapesData deterministically generates the shapes16 dataset and splits
// off a test set — the setup stanza every accuracy example starts with.
func ShapesData(seed uint64, n, testN int) (train, test *data.Dataset) {
	r := rng.New(seed)
	return data.GenShapes16(r, n).Split(r.Split(1), testN)
}

// SpeedupBase is the single-GPU throughput baseline (samples/s) speedup
// figures divide by.
func SpeedupBase(w costmodel.Workload) float64 {
	return float64(w.Batch) / w.MeanIterSec()
}

// Fatal prints the error prefixed with the program name and exits.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", filepath.Base(os.Args[0]), err)
	os.Exit(1)
}
