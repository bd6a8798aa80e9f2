// Package api defines the canonical, versioned experiment schema every
// front end speaks: the CLI flags, the HTTP control plane (internal/ctlplane
// and cmd/expd), and any future submission surface all build an
// ExperimentSpec first and derive runtime configuration from it, instead of
// each maintaining its own flag→struct dialect.
//
// The package owns three things:
//
//   - ExperimentSpec: the JSON-serializable description of one experiment
//     (algorithm, model, cluster shape, faults, execution backend). It is
//     versioned (SpecVersion); Normalize applies the documented defaults so
//     a minimal spec like {"algo":"bsp"} is complete.
//   - Spec → config derivation: Config() builds a core.Config (the
//     simulator's native configuration), materializing datasets, model
//     factories, cost-model workloads, and fault schedules from the spec's
//     plain-data fields.
//   - RunResult: the unified result schema both core.Result (simulator) and
//     live.Result (wall-clock runtime) convert into, so reporting, storage,
//     and analysis tooling consume one shape regardless of backend.
package api

import (
	"fmt"
	"strings"

	"disttrain/internal/cluster"
	"disttrain/internal/core"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/fault"
	"disttrain/internal/grad"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/rng"
)

// SpecVersion is the current ExperimentSpec schema version. Versioning
// policy: the version bumps only on incompatible changes (renamed or
// re-interpreted fields); purely additive fields keep the version. Readers
// accept a spec whose Version is empty (meaning "current") or equal to
// SpecVersion, and reject anything else.
const SpecVersion = "v1"

// Transport names for ExperimentSpec.Transport.
const (
	TransportSim  = "sim"  // deterministic discrete-event simulator
	TransportTCP  = "tcp"  // live loopback/multi-process TCP runtime
	TransportChan = "chan" // live runtime, data plane over in-memory pipes
)

// RealSpec enables real gradient math (accuracy mode) in a spec.
type RealSpec struct {
	// Dataset is the synthetic dataset name: shapes16|gauss|spiral
	// (default shapes16).
	Dataset string `json:"dataset,omitempty"`
	// Net is the model architecture: mlp|minicnn|miniresnet|miniresnetbn|
	// minivgg (default minicnn). The conv nets train on shapes16 only; mlp
	// takes any dataset (it flattens images).
	Net string `json:"net,omitempty"`
	// Batch is the per-worker mini-batch size (default 8).
	Batch int `json:"batch,omitempty"`
	// EvalEvery evaluates the global model every this many worker-0
	// iterations (default max(1, iters/10)). Set to 1 for per-iteration
	// convergence samples on the metrics stream.
	EvalEvery int `json:"eval_every,omitempty"`
	// EvalMax caps evaluation to this many test samples (default 500;
	// negative = the whole test set).
	EvalMax int `json:"eval_max,omitempty"`
	// AugShift and AugFlipProb enable random training-batch augmentation
	// (max per-axis pixel shift, horizontal-flip probability). Both zero =
	// no augmentation.
	AugShift    int     `json:"aug_shift,omitempty"`
	AugFlipProb float64 `json:"aug_flip_prob,omitempty"`
}

// ExperimentSpec is the canonical description of one experiment. The zero
// value of every optional field means "use the documented default"; the only
// required field is Algo. All fields are plain data, so a spec serializes
// losslessly to JSON and back.
type ExperimentSpec struct {
	// Version is the spec schema version; empty means SpecVersion.
	Version string `json:"version,omitempty"`
	// Name is an optional human label carried through results and listings.
	Name string `json:"name,omitempty"`

	// Algo is the training algorithm (core.Algos plus extensions):
	// bsp|asp|ssp|easgd|arsgd|gosgd|adpsgd|dpsgd|hogwild|adacomm.
	Algo string `json:"algo"`
	// Workers is the worker (GPU) count (default 8).
	Workers int `json:"workers,omitempty"`
	// Model is the cost-model profile: resnet50|vgg16|bertbase (default
	// resnet50).
	Model string `json:"model,omitempty"`
	// Gbps selects the paper cluster shape: >= 56 is the InfiniBand
	// cluster, below is 10 Gbps Ethernet (default 56).
	Gbps float64 `json:"gbps,omitempty"`
	// Iters is training iterations per worker (default 30).
	Iters int `json:"iters,omitempty"`
	// Seed makes the experiment reproducible (default 1).
	Seed uint64 `json:"seed,omitempty"`
	// LR is the learning-rate base (default 0.1).
	LR float64 `json:"lr,omitempty"`

	// Staleness is SSP's threshold s (nil = default 3; 0 is legal).
	Staleness *int `json:"staleness,omitempty"`
	// Tau is EASGD's (and AdaComm's initial) communication period
	// (default 8).
	Tau int `json:"tau,omitempty"`
	// MovingRate is EASGD's elastic coefficient α (default 0.9/workers).
	MovingRate float64 `json:"moving_rate,omitempty"`
	// GossipP is GoSGD's per-iteration gossip probability (default 0.01).
	GossipP float64 `json:"gossip_p,omitempty"`

	// Sharding selects PS partitioning: none|layerwise|balanced
	// (default none).
	Sharding string `json:"sharding,omitempty"`
	// Shards is the PS shard count (0 = one per machine when sharded).
	Shards int `json:"shards,omitempty"`
	// WaitFreeBP overlaps backward compute with gradient transfer.
	WaitFreeBP bool `json:"wait_free_bp,omitempty"`
	// DGC enables deep gradient compression (defaults: momentum 0.9,
	// warm-up iters/5).
	DGC bool `json:"dgc,omitempty"`
	// Quantize8 enables 8-bit gradient quantization.
	Quantize8 bool `json:"quantize8,omitempty"`
	// QuantizeF16 enables fp16 gradient quantization (exclusive with
	// Quantize8; both layer on DGC).
	QuantizeF16 bool `json:"quantize_f16,omitempty"`
	// LocalAgg enables BSP intra-machine aggregation.
	LocalAgg bool `json:"local_agg,omitempty"`
	// TreeAllReduce is spec v1's spelling of Collective "tree", still
	// accepted: Config folds it into the name.
	TreeAllReduce bool `json:"tree_allreduce,omitempty"`
	// Collective selects AR-SGD's AllReduce algorithm by name:
	// ring (default) | tree | hierarchical | butterfly | torus.
	Collective string `json:"collective,omitempty"`
	// Overlay restricts AD-PSGD/GoSGD partner selection to a sparse peer
	// graph: kregular | smallworld.
	Overlay string `json:"overlay,omitempty"`
	// OverlayDegree is the overlay's target neighbor count per rank
	// (0 = default 4).
	OverlayDegree int `json:"overlay_degree,omitempty"`
	// StalenessDamping enables ASP's staleness-aware learning-rate scaling.
	StalenessDamping bool `json:"staleness_damping,omitempty"`

	// Real enables real gradient math; nil = cost-only simulation.
	Real *RealSpec `json:"real,omitempty"`

	// FaultSpec is a compact fault-schedule string (fault.ParseSpec syntax,
	// e.g. "crash@iter20:w3:restart=5;drop@10:p=0.05:for=60").
	FaultSpec string `json:"fault_spec,omitempty"`
	// Faults is an explicit fault schedule; events from both it and
	// FaultSpec are combined.
	Faults *fault.Schedule `json:"faults,omitempty"`
	// Elastic makes membership-based barriers survive crashes.
	Elastic bool `json:"elastic,omitempty"`
	// TimeoutSec bounds fault-mode barrier waits in virtual seconds
	// (0 = 5 mean iterations).
	TimeoutSec float64 `json:"timeout_sec,omitempty"`

	// Transport selects the execution backend: sim (default), tcp (live
	// loopback TCP), or chan (live loopback, its data plane TCP's transport
	// over in-memory pipes). The live backends require Real.
	Transport string `json:"transport,omitempty"`
	// Pool is the compute-pool size for real gradient math: 0 = one
	// goroutine per CPU, negative = serial inline. Results are identical
	// for every value; only wall time changes.
	Pool int `json:"pool,omitempty"`

	// CkptDir/CkptEvery configure live-run training-state checkpoints
	// (empty dir = none; every defaults to 1 when dir is set).
	CkptDir   string `json:"ckpt_dir,omitempty"`
	CkptEvery int    `json:"ckpt_every,omitempty"`
}

// Normalize validates the version and fills every defaulted field in place,
// so two specs that differ only in omitted-vs-explicit defaults derive the
// same configuration. It is idempotent.
func (s *ExperimentSpec) Normalize() error {
	switch s.Version {
	case "", SpecVersion:
		s.Version = SpecVersion
	default:
		return fmt.Errorf("api: unsupported spec version %q (this build speaks %s)", s.Version, SpecVersion)
	}
	if s.Algo == "" {
		return fmt.Errorf("api: spec missing algo")
	}
	if s.Workers == 0 {
		s.Workers = 8
	}
	if s.Model == "" {
		s.Model = "resnet50"
	}
	if s.Gbps == 0 {
		s.Gbps = 56
	}
	if s.Iters == 0 {
		s.Iters = 30
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.LR == 0 {
		s.LR = 0.1
	}
	if s.Staleness == nil {
		st := 3
		s.Staleness = &st
	}
	if s.Tau == 0 {
		s.Tau = 8
	}
	if s.GossipP == 0 {
		s.GossipP = 0.01
	}
	if s.Sharding == "" {
		s.Sharding = string(core.ShardNone)
	}
	switch s.Transport {
	case "":
		s.Transport = TransportSim
	case TransportSim, TransportTCP, TransportChan:
	default:
		return fmt.Errorf("api: unknown transport %q (want %s, %s or %s)",
			s.Transport, TransportSim, TransportTCP, TransportChan)
	}
	if s.Real != nil {
		if s.Real.Dataset == "" {
			s.Real.Dataset = "shapes16"
		}
		if s.Real.Net == "" {
			s.Real.Net = "minicnn"
		}
		if s.Real.Batch == 0 {
			s.Real.Batch = 8
		}
		if s.Real.EvalEvery == 0 {
			s.Real.EvalEvery = max(1, s.Iters/10)
		}
		switch {
		case s.Real.EvalMax == 0:
			s.Real.EvalMax = 500
		case s.Real.EvalMax < 0:
			s.Real.EvalMax = 0 // negative requests the whole test set
		}
	}
	if s.CkptDir != "" && s.CkptEvery == 0 {
		s.CkptEvery = 1
	}
	return nil
}

// Live reports whether the spec targets a wall-clock runtime backend.
func (s *ExperimentSpec) Live() bool {
	return s.Transport == TransportTCP || s.Transport == TransportChan
}

// PoolSize resolves a spec/flag pool value into core.Config.PoolSize: 0
// asks for one compute goroutine per available CPU, a negative value forces
// the serial inline path, and positive values pass through. Training
// results are bit-identical for every resolution; only wall time changes.
func PoolSize(pool int) int {
	switch {
	case pool < 0:
		return 0
	case pool == 0:
		return numCPU()
	}
	return pool
}

// Cluster returns the paper's 56 Gbps InfiniBand cluster shape for gbps >=
// 56 and the 10 Gbps Ethernet shape otherwise.
func Cluster(gbps float64, workers int) cluster.Config {
	if gbps >= 56 {
		return cluster.Paper56G(workers)
	}
	return cluster.Paper10G(workers)
}

// Config derives the simulator-native core.Config from the spec,
// materializing the cost-model workload, fault schedule, and (in real mode)
// datasets and model factory. The receiver is normalized in place first; the
// returned config is not yet validated — core.Run (or live.Validate)
// validates it — but spec-level errors (unknown model/dataset names, a net
// whose input shape the dataset cannot feed, malformed fault specs) surface
// here, before any run starts.
func (s *ExperimentSpec) Config() (core.Config, error) {
	if err := s.Normalize(); err != nil {
		return core.Config{}, err
	}
	profile, err := costmodel.ProfileByName(s.Model)
	if err != nil {
		return core.Config{}, err
	}
	cfg := core.Config{
		Algo:        core.Algo(s.Algo),
		Cluster:     Cluster(s.Gbps, s.Workers),
		Workers:     s.Workers,
		Workload:    costmodel.NewWorkload(profile, costmodel.TitanV(), 128),
		Iters:       s.Iters,
		Seed:        s.Seed,
		Momentum:    0.9,
		LR:          opt.Schedule{Base: s.LR},
		Staleness:   *s.Staleness,
		Tau:         s.Tau,
		MovingRate:  s.MovingRate,
		GossipP:     s.GossipP,
		Sharding:    core.Sharding(s.Sharding),
		Shards:      s.Shards,
		WaitFreeBP:  s.WaitFreeBP,
		LocalAgg:    s.LocalAgg,
		Quantize8:   s.Quantize8,
		QuantizeF16: s.QuantizeF16,

		Collective:       s.Collective,
		Overlay:          s.Overlay,
		OverlayDegree:    s.OverlayDegree,
		StalenessDamping: s.StalenessDamping,

		Elastic:           s.Elastic,
		BarrierTimeoutSec: s.TimeoutSec,

		PoolSize: PoolSize(s.Pool),
	}
	if s.TreeAllReduce {
		if s.Collective != "" && s.Collective != "tree" {
			return core.Config{}, fmt.Errorf("api: tree_allreduce conflicts with collective %q", s.Collective)
		}
		cfg.Collective = "tree"
	}
	cfg.Faults, err = s.faultSchedule()
	if err != nil {
		return core.Config{}, err
	}
	if s.DGC {
		d := grad.DefaultDGC(0.9, s.Iters/5)
		cfg.DGC = &d
	}
	if s.Real != nil {
		r := rng.New(s.Seed * 31)
		ds, err := data.ByName(s.Real.Dataset, r, 4000)
		if err != nil {
			return core.Config{}, err
		}
		trainDS, testDS := ds.Split(r.Split(1), 600)
		factory, err := nn.FactoryByName(s.Real.Net, ds.Classes, ds.SampleShape())
		if err != nil {
			if fit := fittingDatasets(s.Real.Net); fit != "" {
				err = fmt.Errorf("api: net %q cannot train on dataset %q: %w (datasets that fit: %s)",
					s.Real.Net, s.Real.Dataset, err, fit)
			}
			return core.Config{}, err
		}
		cfg.WeightDecay = 1e-4
		cfg.LR = opt.Schedule{Base: s.LR, WarmupIters: s.Iters / 20}
		cfg.Real = &core.RealConfig{
			Factory:   factory,
			Train:     trainDS,
			Test:      testDS,
			Batch:     s.Real.Batch,
			EvalEvery: s.Real.EvalEvery,
			EvalMax:   s.Real.EvalMax,
		}
		if s.Real.AugShift > 0 || s.Real.AugFlipProb > 0 {
			cfg.Real.Augment = &data.Augment{
				MaxShift: s.Real.AugShift,
				FlipProb: s.Real.AugFlipProb,
			}
		}
	}
	return cfg, nil
}

// fittingDatasets names the datasets whose samples net can take, for the
// error that rejects one it cannot; empty for a net nn does not know.
func fittingDatasets(net string) string {
	var fit []string
	for _, name := range data.Names {
		ds, err := data.ByName(name, rng.New(1), 1)
		if err != nil {
			continue
		}
		if _, err := nn.FactoryByName(net, ds.Classes, ds.SampleShape()); err == nil {
			fit = append(fit, name)
		}
	}
	return strings.Join(fit, ", ")
}

// faultSchedule combines the compact FaultSpec string and the explicit
// Faults schedule into one. Returns nil when both are empty.
func (s *ExperimentSpec) faultSchedule() (*fault.Schedule, error) {
	var sched *fault.Schedule
	if s.FaultSpec != "" {
		var err error
		if sched, err = fault.ParseSpec(s.FaultSpec); err != nil {
			return nil, err
		}
	}
	if s.Faults != nil && len(s.Faults.Events) > 0 {
		if sched == nil {
			cp := *s.Faults
			cp.Events = append([]fault.Event(nil), s.Faults.Events...)
			sched = &cp
		} else {
			sched.Events = append(sched.Events, s.Faults.Events...)
		}
	}
	return sched, nil
}
