// Package cli holds the flag and setup boilerplate shared by cmd/disttrain
// and the runnable examples: experiment-flag registration, spec/config
// assembly, fault-schedule loading, signal-aware contexts, and run-or-die
// helpers. Keeping it in one place means every entry point exposes the same
// knobs with the same semantics.
//
// Flags no longer assemble a core.Config directly: Spec builds the
// canonical api.ExperimentSpec first (the same document the HTTP control
// plane accepts), and Config derives the runtime configuration from it —
// so a flag-driven local run and a spec submitted to cmd/expd go through
// one derivation path.
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
	"disttrain/internal/cluster"
	"disttrain/internal/core"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/fault"
	"disttrain/internal/live"
	"disttrain/internal/rng"
)

// Flags is the bundle of experiment flags shared by the CLI tools. Register
// binds them onto a FlagSet; Spec assembles the canonical ExperimentSpec
// after parsing, and Config derives a validated-ready core.Config from it.
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
	SlowUnitMS float64
	Rejoin     int
}

// Register binds the shared experiment flags onto fs and returns the
// destination struct. Call fs.Parse (or flag.Parse for the default set)
// before reading it.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Algo, "algo", "bsp", "algorithm: bsp|asp|ssp|easgd|arsgd|gosgd|adpsgd|dpsgd|hogwild|adacomm")
	fs.IntVar(&f.Workers, "workers", 8, "number of workers (GPUs)")
	fs.StringVar(&f.Model, "model", "resnet50", "cost model: resnet50|vgg16")
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
	fs.StringVar(&f.Overlay, "overlay", "", "AD-PSGD/GoSGD gossip overlay: kregular|smallworld (empty = uniform partner selection; on a live transport GoSGD only — AD-PSGD overlays are simulator-only)")
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

	fs.StringVar(&f.Transport, "transport", "sim", "execution backend: sim (virtual-time simulator) | tcp (live TCP) | chan (live in-process channels); live backends require -real")
	fs.StringVar(&f.Role, "role", "", "live multi-process role: coordinator|worker (empty = single-process loopback harness)")
	fs.StringVar(&f.Coord, "coord", "127.0.0.1:9901", "coordinator address: listen address for -role=coordinator, dial address for -role=worker")
	fs.StringVar(&f.MeshListen, "meshlisten", "127.0.0.1:0", "live worker's mesh listen address (use a peer-reachable host:0 for multi-machine runs)")
	fs.StringVar(&f.CkptDir, "ckptdir", "", "live checkpoint directory (empty = no checkpoints; required to survive crash faults)")
	fs.IntVar(&f.CkptEvery, "ckptevery", 1, "live checkpoint cadence in iterations")
	fs.Float64Var(&f.SlowUnitMS, "slowunit", 0, "live latency per slowdown unit in ms (0 = default 10ms)")
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
		SlowUnitMS:    f.SlowUnitMS,
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

// Config derives a core.Config from the parsed flags by way of the
// canonical spec, so local flag-driven runs and HTTP submissions share one
// derivation path. The config is not yet validated — core.Run validates it.
func (f *Flags) Config() (core.Config, error) {
	spec, err := f.Spec()
	if err != nil {
		return core.Config{}, err
	}
	return spec.Config()
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

// PoolSize resolves the -pool flag into core.Config.PoolSize. Kept as an
// alias of api.PoolSize for the examples that call it directly.
func PoolSize(flag int) int { return api.PoolSize(flag) }

// Cluster returns the paper's 56 Gbps InfiniBand cluster shape for gbps >=
// 56 and the 10 Gbps Ethernet shape otherwise.
func Cluster(gbps float64, workers int) cluster.Config { return api.Cluster(gbps, workers) }

// Context returns a context canceled on SIGINT/SIGTERM, so an interrupted
// run unwinds through core.Run's cancellation path instead of dying
// mid-print.
func Context() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// LiveOptions translates the checkpoint and slow-unit flags into live run
// options.
func (f *Flags) LiveOptions() []live.Option {
	spec := api.ExperimentSpec{CkptDir: f.CkptDir, CkptEvery: f.CkptEvery, SlowUnitMS: f.SlowUnitMS}
	return spec.LiveOptions()
}

// RunLive dispatches a live (wall-clock) run according to the transport
// and role flags, with any extra options (tracing, metrics) appended to the
// flag-derived ones. A nil Result with nil error means this process was a
// worker: it trained to completion, and the coordinator process owns the
// run's Result.
func (f *Flags) RunLive(cfg core.Config, extra ...live.Option) (*live.Result, error) {
	opts := append(f.LiveOptions(), extra...)
	switch f.Transport {
	case "chan":
		if f.Role != "" {
			return nil, fmt.Errorf("cli: -role applies only to -transport=tcp")
		}
		return live.RunChan(cfg, opts...)
	case "tcp":
		switch f.Role {
		case "":
			return live.RunLoopback(cfg, opts...)
		case "coordinator":
			return live.RunCoordinator(cfg, f.Coord, opts...)
		case "worker":
			if f.Rejoin >= 0 {
				return nil, live.RunWorkerRejoin(cfg, f.Coord, f.Rejoin, opts...)
			}
			return nil, live.RunWorker(cfg, f.Coord, f.MeshListen, opts...)
		default:
			return nil, fmt.Errorf("cli: unknown -role %q (want coordinator or worker)", f.Role)
		}
	default:
		return nil, fmt.Errorf("cli: unknown -transport %q (want sim, tcp or chan)", f.Transport)
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
