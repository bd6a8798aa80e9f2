package api

import (
	"context"
	"encoding/json"
	"io"
	"runtime"
	"time"

	"disttrain/internal/core"
	"disttrain/internal/live"
	"disttrain/internal/metrics"
	"disttrain/internal/trace"
)

func numCPU() int { return runtime.GOMAXPROCS(0) }

// NetStats carries the live transport counters in the result schema
// (absent for simulator runs, which report virtual traffic in the Summary).
type NetStats struct {
	FramesSent  int64 `json:"frames_sent,omitempty"`
	FramesRecv  int64 `json:"frames_recv,omitempty"`
	BytesSent   int64 `json:"bytes_sent,omitempty"`
	BytesRecv   int64 `json:"bytes_recv,omitempty"`
	Redials     int64 `json:"redials,omitempty"`
	Kills       int64 `json:"kills,omitempty"`
	DelayNanos  int64 `json:"delay_nanos,omitempty"`
	Partitioned int64 `json:"partitioned,omitempty"`
}

// RunResult is the unified outcome schema: both the simulator's core.Result
// and the live runtime's live.Result convert into it (FromCore, FromLive),
// so the CLI, the HTTP control plane, and stored artifacts all speak one
// shape. For simulator runs the conversion is deterministic: identical
// specs produce byte-identical WriteJSON output, which the control plane's
// end-to-end tests enforce.
type RunResult struct {
	// SpecVersion is the ExperimentSpec schema version the run was
	// submitted under.
	SpecVersion string `json:"spec_version"`
	// Transport is the backend that executed the run: sim, tcp, or chan.
	Transport string `json:"transport"`
	// Summary is the shared metrics digest. For live runs VirtualSec
	// carries the wall-clock makespan (a live run has no virtual time) and
	// the phase breakdown is in wall seconds.
	Summary core.Summary `json:"summary"`

	// WallSec is real seconds from start to the last worker's finish
	// (live runs only).
	WallSec float64 `json:"wall_sec,omitempty"`
	// WorkerIters is each rank's completed iteration count (live runs
	// only; the simulator's per-worker counts live in its Metrics).
	WorkerIters []int `json:"worker_iters,omitempty"`
	// Net aggregates transport counters over every endpoint (live runs
	// only).
	Net *NetStats `json:"net,omitempty"`
	// Deaths, Rejoins and Restores count live chaos events.
	Deaths   int64 `json:"deaths,omitempty"`
	Rejoins  int64 `json:"rejoins,omitempty"`
	Restores int64 `json:"restores,omitempty"`
}

// FromCore converts a simulator result into the unified schema.
func FromCore(r *core.Result) *RunResult {
	return &RunResult{
		SpecVersion: SpecVersion,
		Transport:   TransportSim,
		Summary:     r.Summary(),
	}
}

// FromLive converts a live-runtime result into the unified schema.
func FromLive(r *live.Result) *RunResult {
	out := &RunResult{
		SpecVersion: SpecVersion,
		Transport:   r.Transport,
		Summary:     r.Summary(),
		WallSec:     r.WallSec,
		WorkerIters: r.WorkerIters,
		Deaths:      r.Deaths,
		Rejoins:     r.Rejoins,
		Restores:    r.Restores,
	}
	net := NetStats{
		FramesSent:  r.Net.FramesSent,
		FramesRecv:  r.Net.FramesRecv,
		BytesSent:   r.Net.BytesSent,
		BytesRecv:   r.Net.BytesRecv,
		Redials:     r.Net.Redials,
		Kills:       r.Net.Kills,
		DelayNanos:  r.Net.DelayNanos,
		Partitioned: r.Net.Partitioned,
	}
	if net != (NetStats{}) {
		out.Net = &net
	}
	return out
}

// WriteJSON writes the result as indented JSON — the canonical export every
// surface (CLI -json, the control plane's result endpoint, stored
// artifacts) uses, so byte-level comparisons between them are meaningful.
func (r *RunResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MetricPoint is one sample on an experiment's metrics stream. Simulator
// runs emit global convergence samples (Worker = -1, from the evaluation
// cadence); live runs emit one point per completed worker iteration.
type MetricPoint struct {
	// Worker is the reporting rank, or -1 for a global evaluation sample.
	Worker int `json:"worker"`
	// Iter is the iteration the sample refers to.
	Iter int `json:"iter"`
	// Epoch is fractional dataset epochs processed (global samples).
	Epoch float64 `json:"epoch,omitempty"`
	// VirtualSec is the simulator clock at the sample (sim runs).
	VirtualSec float64 `json:"virtual_sec,omitempty"`
	// WallSec is real seconds since the run started (live runs).
	WallSec float64 `json:"wall_sec,omitempty"`
	// TrainLoss is the training-loss EWMA at the sample.
	TrainLoss float64 `json:"train_loss,omitempty"`
	// TestErr is 1 − test accuracy (global samples).
	TestErr float64 `json:"test_err,omitempty"`
}

// Experiment lifecycle states used by the control plane and its clients.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// TerminalState reports whether state is a final one.
func TerminalState(state string) bool {
	return state == StateDone || state == StateFailed
}

// ExperimentStatus is the control plane's view of one submitted experiment:
// the spec, where it is in its lifecycle, and (once finished) the result.
// It is both the HTTP response shape and the persisted artifact shape.
type ExperimentStatus struct {
	ID    string         `json:"id"`
	Spec  ExperimentSpec `json:"spec"`
	State string         `json:"state"`
	// Error is the failure cause when State is failed.
	Error       string     `json:"error,omitempty"`
	SubmittedAt time.Time  `json:"submitted_at,omitzero"`
	StartedAt   time.Time  `json:"started_at,omitzero"`
	FinishedAt  time.Time  `json:"finished_at,omitzero"`
	Result      *RunResult `json:"result,omitempty"`
}

// RunOptions tunes Run beyond the spec.
type RunOptions struct {
	// OnMetric, when non-nil, observes progress samples as the run
	// produces them. Live workers run concurrently, so it must be safe for
	// concurrent use and must not block.
	OnMetric func(MetricPoint)
	// LiveOptions are appended to the options derived from the spec for
	// live backends.
	LiveOptions []live.Option
	// Tracer, when non-nil, captures a Chrome trace of the run on either
	// time source: virtual-time spans from the simulator, wall-clock spans
	// from the live runtimes. The caller owns writing it out (WriteJSON).
	Tracer *trace.Tracer
}

// LiveOptions translates the spec's checkpoint fields into live run
// options, followed by o's live options and tracer (o may be nil).
func (s *ExperimentSpec) LiveOptions(o *RunOptions) []live.Option {
	var opts []live.Option
	if s.CkptDir != "" {
		opts = append(opts, live.WithCheckpoints(s.CkptDir, s.CkptEvery))
	}
	if o != nil {
		opts = append(opts, o.LiveOptions...)
		if o.Tracer != nil {
			opts = append(opts, live.WithTracer(o.Tracer))
		}
	}
	return opts
}

// Validated derives the spec's core.Config and runs the full validation
// appropriate for its transport, so a bad spec is rejected before any run
// starts (the control plane calls this at submission time).
func (s *ExperimentSpec) Validated() (core.Config, error) {
	cfg, err := s.Config()
	if err != nil {
		return core.Config{}, err
	}
	if s.Live() {
		if err := live.Validate(&cfg); err != nil {
			return core.Config{}, err
		}
	} else if err := cfg.Validate(); err != nil {
		return core.Config{}, err
	}
	return cfg, nil
}

// Run executes the spec on its transport — core.Run for the simulator,
// live.RunLoopback / live.RunChan for the wall-clock backends — and
// converts the outcome into the unified RunResult. This is the single-call
// entry point the control plane's workers and simple CLI paths share;
// multi-process live roles (coordinator/worker) remain entry points on the
// live package.
func Run(ctx context.Context, spec ExperimentSpec, o *RunOptions) (*RunResult, error) {
	cfg, err := spec.Config()
	if err != nil {
		return nil, err
	}
	var onMetric func(MetricPoint)
	if o != nil {
		onMetric = o.OnMetric
	}
	switch spec.Transport {
	case TransportTCP, TransportChan:
		opts := spec.LiveOptions(o)
		start := time.Now()
		if onMetric != nil {
			opts = append(opts, live.WithProgress(func(rank, iter int, loss float64) {
				onMetric(MetricPoint{
					Worker:    rank,
					Iter:      iter,
					WallSec:   time.Since(start).Seconds(),
					TrainLoss: loss,
				})
			}))
		}
		var res *live.Result
		if spec.Transport == TransportChan {
			res, err = live.RunChan(cfg, opts...)
		} else {
			res, err = live.RunLoopback(cfg, opts...)
		}
		if err != nil {
			return nil, err
		}
		return FromLive(res), nil
	default:
		if o != nil && o.Tracer != nil {
			cfg.Tracer = o.Tracer
		}
		if onMetric != nil {
			cfg.Progress = func(tp metrics.TracePoint) {
				onMetric(MetricPoint{
					Worker:     -1,
					Iter:       tp.Iter,
					Epoch:      tp.Epoch,
					VirtualSec: tp.VirtualSec,
					TrainLoss:  tp.TrainLoss,
					TestErr:    tp.TestErr,
				})
			}
		}
		res, err := core.Run(ctx, cfg)
		if err != nil {
			return nil, err
		}
		return FromCore(res), nil
	}
}
